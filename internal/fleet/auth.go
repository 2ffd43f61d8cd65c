package fleet

// Frame authentication: the fleet's key plane for wire version 2.
//
// PR 6's hardening (source pinning, replay windows, attempt bitmasks)
// is heuristic — it stops attackers who cannot spoof the device's
// address. Authentication makes the defenses cryptographic: with
// RuntimeConfig.AuthKey set, every frame the fleet sends carries an
// AES-128-CMAC tag (wire v2) and every frame it receives is verified
// before any engine sees it, so a forged reply, BYE or probe is
// rejected no matter what source address it claims.
//
// The design constraints, in order:
//
//   - Zero allocations on the hot path. Key schedules are derived once
//     per (control point, device) pair / per device and retained: a
//     cpNode carries its pair schedules next to the demux state the
//     reply path already touches, a hosted device caches one schedule
//     per known peer (bounded by and evicted with the peer table), and
//     per-device broadcast schedules live in the shard's devAuth table.
//     Sign and verify then cost one CMAC each, no heap traffic — the
//     0 allocs/op gate runs with auth ON.
//   - Rotation never manufactures a verdict. The shard's authPlane
//     holds the current and previous master; after SetConfig installs a
//     new key, frames under the old one are still accepted for
//     AuthRotationGrace (Counters.AuthStaleKey), so in-flight cycles
//     complete across the swap — the same no-false-verdict discipline
//     drain/rebalance meets. Schedules re-derive lazily: every key
//     change bumps the shard's epoch, and each node compares its cached
//     epoch on first use.
//   - Downgrade-proof negotiation. A v1 (unauthenticated) frame is
//     still accepted from a device that has never authenticated — mixed
//     fleets interoperate during a rollout — but once a device has ever
//     spoken v2 to this shard, its high-water mark is set and v1 frames
//     from it are rejected (Counters.AuthDowngraded). RuntimeConfig.
//     AuthRequire closes the window entirely: no v1 frame is accepted
//     from anyone.
//
// Key hierarchy: one master secret, HKDF-derived subkeys. Probes and
// replies use the (control point, device) pair key — both endpoints of
// one monitoring relationship derive it independently. BYEs and
// announces use the device's broadcast key, so a fan-out to N watchers
// costs each receiving shard one verification, not N.
//
// Replays within a live cycle are out of scope for the tag (it covers
// no timestamp); the PR-6 replay window and attempt bitmask still
// handle those, now over authenticated frames only.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
	"presence/internal/wire"
)

// LoadAuthKey reads a master secret from a keyfile — the
// RuntimeConfig.AuthKey for startup or a rotation push: the file's
// content with leading/trailing whitespace trimmed. An empty (or
// whitespace-only) file is an error — a misconfigured rotation must
// not silently disable authentication.
func LoadAuthKey(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: auth keyfile: %w", err)
	}
	key := bytes.TrimSpace(raw)
	if len(key) == 0 {
		return nil, fmt.Errorf("fleet: auth keyfile %s is empty", path)
	}
	return key, nil
}

// errAuthRequireNoKey rejects a runtime config that demands
// authentication while removing the key that provides it.
var errAuthRequireNoKey = errors.New("fleet: AuthRequire set without an auth key")

// authPlane is one shard's authentication state: the live master
// secrets and the epoch node-cached schedules are derived under.
// Owned by the shard loop like everything the dispatch path reads.
type authPlane struct {
	enabled bool
	require bool
	// epoch increments on every key-plane change (enable, disable,
	// rotation); node schedules cache it and re-derive on mismatch.
	epoch uint64
	cur   []byte
	// prev is the pre-rotation master, accepted until prevUntil.
	prev      []byte
	prevUntil time.Duration
}

// devAuthState is a shard's per-device auth state: the broadcast-key
// schedules (BYE/announce verification — one CMAC per received frame
// regardless of watcher count) and the v2 high-water mark that makes
// negotiation downgrade-proof.
type devAuthState struct {
	epoch uint64
	cur   *wire.AuthKey
	prev  *wire.AuthKey
	// seenV2 latches once the device has ever sent a verified v2 frame
	// to this shard; v1 frames from it are rejected afterwards.
	seenV2 bool
}

// peerAuthState is a hosted device's per-peer auth state: the pair-key
// schedules for one watching control point, plus its v2 high-water
// mark. Entries live and die with the device's peer table (bounded,
// LRU-evicted).
type peerAuthState struct {
	epoch  uint64
	cur    *wire.AuthKey
	prev   *wire.AuthKey
	seenV2 bool
}

// applyAuth folds the runtime config's auth fields into the shard's
// key plane: enable, disable, or rotate with grace. Runs on the shard
// loop (from applyConfig).
func (s *shard) applyAuth(rc *RuntimeConfig) {
	a := &s.auth
	switch {
	case len(rc.AuthKey) == 0:
		if a.enabled {
			*a = authPlane{epoch: a.epoch + 1}
		}
	case !a.enabled:
		*a = authPlane{enabled: true, epoch: a.epoch + 1, cur: rc.AuthKey}
	case !bytes.Equal(a.cur, rc.AuthKey):
		// Rotation: the old master stays verifiable for the grace window
		// so frames in flight across the swap still land.
		a.prev = a.cur
		a.prevUntil = s.now + rc.AuthRotationGrace
		a.cur = rc.AuthKey
		a.epoch++
	}
	a.require = a.enabled && rc.AuthRequire
	if !a.enabled {
		s.devAuth = nil
	}
}

// deriveOrNil wraps wire.DeriveKey for the dispatch paths: the master
// is validated non-empty when the plane enables, so failure cannot
// happen; a nil schedule (never matching any tag) is the safe fallback
// if it somehow does.
func deriveOrNil(master []byte, info string) *wire.AuthKey {
	k, err := wire.DeriveKey(master, info)
	if err != nil {
		return nil
	}
	return k
}

// verifyDual checks a v2 frame against a current/previous schedule
// pair: the current key, then — inside the rotation grace — the
// previous one (Counters.AuthStaleKey). Counts the outcome. Runs on
// the shard loop.
func (s *shard) verifyDual(cur, prev *wire.AuthKey, f *wire.Frame) bool {
	if cur != nil && cur.VerifyFrame(f) {
		s.counters.AuthVerified++
		return true
	}
	if prev != nil && s.now < s.auth.prevUntil && prev.VerifyFrame(f) {
		s.counters.AuthVerified++
		s.counters.AuthStaleKey++
		return true
	}
	s.counters.AuthRejected++
	return false
}

// ensureCPAuth refreshes a control point's pair-key schedules (and its
// devAuth pointer) for the shard's current key epoch. Cheap when
// already current: one comparison. Runs on the shard loop.
func (s *shard) ensureCPAuth(n *cpNode) {
	a := &s.auth
	if !a.enabled {
		n.authCur, n.authPrev, n.devAuth = nil, nil, nil
		n.authEpoch = a.epoch
		return
	}
	if n.authEpoch == a.epoch && n.authCur != nil {
		return
	}
	info := wire.PairInfo(n.id, n.device)
	n.authCur = deriveOrNil(a.cur, info)
	n.authPrev = nil
	if a.prev != nil {
		n.authPrev = deriveOrNil(a.prev, info)
	}
	n.devAuth = s.devAuthFor(n.device)
	n.authEpoch = a.epoch
}

// devAuthFor returns the shard's auth state for a device, creating it
// if needed and refreshing its broadcast schedules to the current
// epoch. Only call for devices this shard watches or fans out for (the
// table must stay bounded by the watched population). Runs on the
// shard loop.
func (s *shard) devAuthFor(id ident.NodeID) *devAuthState {
	st := s.devAuth[id]
	if st == nil {
		st = &devAuthState{}
		if s.devAuth == nil {
			s.devAuth = make(map[ident.NodeID]*devAuthState)
		}
		s.devAuth[id] = st
	}
	a := &s.auth
	if st.epoch != a.epoch || st.cur == nil {
		info := wire.DeviceInfo(id)
		st.cur = deriveOrNil(a.cur, info)
		st.prev = nil
		if a.prev != nil {
			st.prev = deriveOrNil(a.prev, info)
		}
		st.epoch = a.epoch
	}
	return st
}

// ensurePeerAuth refreshes a hosted device's pair schedules for peer
// cp to the current epoch. Runs on the shard loop.
func (s *shard) ensurePeerAuth(st *peerAuthState, cp, device ident.NodeID) {
	a := &s.auth
	if st.epoch == a.epoch && st.cur != nil {
		return
	}
	info := wire.PairInfo(cp, device)
	st.cur = deriveOrNil(a.cur, info)
	st.prev = nil
	if a.prev != nil {
		st.prev = deriveOrNil(a.prev, info)
	}
	st.epoch = a.epoch
}

// authCheckReply gates one demuxed reply for control point n: a v2
// frame must verify under the pair keys (setting the device's v2
// high-water mark), a v1 frame is rejected once the device has ever
// spoken v2 (or always, under Require). On rejection the pending entry
// is kept — the genuine reply may still be on the wire, so a forgery
// cannot starve the cycle into a false verdict. Runs on the shard
// loop.
func (s *shard) authCheckReply(n *cpNode, f *wire.Frame) bool {
	if f.Version == wire.VersionAuth {
		s.ensureCPAuth(n)
		if !s.verifyDual(n.authCur, n.authPrev, f) {
			return false
		}
		if n.devAuth == nil {
			n.devAuth = s.devAuthFor(n.device)
		}
		n.devAuth.seenV2 = true
		return true
	}
	if s.auth.require || (n.devAuth != nil && n.devAuth.seenV2) {
		s.counters.AuthDowngraded++
		return false
	}
	return true
}

// authCheckProbe gates one probe arriving at the hosted device. First
// v2 contact from an unknown peer verifies against a freshly derived
// schedule and caches it only on success — forged sender ids cannot
// grow the cache, and genuine entries are bounded by (and evicted
// with) the peer table. Runs on the shard loop.
func (s *shard) authCheckProbe(f *wire.Frame) bool {
	d := s.device
	st := d.peerAuth[f.From]
	if f.Version == wire.VersionAuth {
		if st == nil {
			st = &peerAuthState{}
			s.ensurePeerAuth(st, f.From, d.id)
			if !s.verifyDual(st.cur, st.prev, f) {
				return false
			}
			if d.peerAuth == nil {
				d.peerAuth = make(map[ident.NodeID]*peerAuthState)
			}
			d.peerAuth[f.From] = st
		} else {
			s.ensurePeerAuth(st, f.From, d.id)
			if !s.verifyDual(st.cur, st.prev, f) {
				return false
			}
		}
		st.seenV2 = true
		return true
	}
	if s.auth.require || (st != nil && st.seenV2) {
		s.counters.AuthDowngraded++
		return false
	}
	return true
}

// authCheckBroadcast gates one BYE/announce against the device's
// broadcast schedules and high-water mark. Runs on the shard loop.
func (s *shard) authCheckBroadcast(st *devAuthState, f *wire.Frame) bool {
	if f.Version == wire.VersionAuth {
		if !s.verifyDual(st.cur, st.prev, f) {
			return false
		}
		st.seenV2 = true
		return true
	}
	if s.auth.require || st.seenV2 {
		s.counters.AuthDowngraded++
		return false
	}
	return true
}

// broadcastAuthFor resolves the devAuth state for a received
// BYE/announce claiming device id: the cached entry, or a fresh one
// when the device is watched here or anywhere in the fleet (the
// fan-out set). Nil for unknown devices — their frames drop as demux
// misses, same as pre-auth, so forged ids cannot grow the table. Runs
// on the shard loop.
func (s *shard) broadcastAuthFor(id ident.NodeID) *devAuthState {
	if st := s.devAuth[id]; st != nil {
		return s.devAuthFor(id) // refresh epoch
	}
	if len(s.watchers[id]) > 0 || s.fleet.deviceWatched(id) {
		return s.devAuthFor(id)
	}
	return nil
}

// deviceWatched reports whether any shard hosts a watcher of device —
// the fan-out set broadcastAuthFor bounds the devAuth table by.
func (f *Fleet) deviceWatched(id ident.NodeID) bool {
	f.watchMu.Lock()
	_, ok := f.watchMask[id]
	f.watchMu.Unlock()
	return ok
}

// deviceSendKey picks the signing schedule for one message a hosted
// device sends: the broadcast key for BYE/announce fan-out, the pair
// key for replies to a specific control point. Runs on the shard loop;
// auth enabled.
func (s *shard) deviceSendKey(d *deviceNode, to ident.NodeID, msg core.Message) *wire.AuthKey {
	switch msg.(type) {
	case core.ByeMsg, *core.ByeMsg, core.AnnounceMsg, *core.AnnounceMsg:
		return s.deviceOwnKey(d)
	}
	st := d.peerAuth[to]
	if st == nil {
		// The peer is in the peer table (the address lookup succeeded), so
		// the cache stays bounded by it.
		st = &peerAuthState{}
		if d.peerAuth == nil {
			d.peerAuth = make(map[ident.NodeID]*peerAuthState)
		}
		d.peerAuth[to] = st
	}
	s.ensurePeerAuth(st, to, d.id)
	return st.cur
}

// deviceOwnKey returns the hosted device's broadcast signing schedule,
// deriving it on first use per epoch. Runs on the shard loop.
func (s *shard) deviceOwnKey(d *deviceNode) *wire.AuthKey {
	a := &s.auth
	if d.authEpoch != a.epoch || d.ownKey == nil {
		d.ownKey = deriveOrNil(a.cur, wire.DeviceInfo(d.id))
		d.authEpoch = a.epoch
	}
	return d.ownKey
}

// sweepAuth expires devAuth entries for devices no longer watched
// anywhere — bounded state, like every other sweep target. Runs on the
// shard loop.
func (s *shard) sweepAuth() {
	for id := range s.devAuth {
		if len(s.watchers[id]) == 0 && !s.fleet.deviceWatched(id) {
			delete(s.devAuth, id)
		}
	}
}
