package fleet

// Runtime administration: the fleet's mutation plane.
//
// A running fleet ingests churn — control points and devices appear and
// disappear, shards drain for maintenance, limits change — while the
// shard event loops keep their single-threaded engine contract and the
// 0 allocs/op hot path. The machinery here is deliberately shaped like
// the PR-7 handoff path:
//
//   - Command inbox: every structural mutation (add/remove/migrate,
//     config push) is a closure queued on the owning shard's bounded
//     command inbox and executed by that shard's event loop at the top of
//     its next iteration, woken by the same read-deadline poke handoffs
//     use. Off-loop threads never hold a shard mutex across engine
//     work, and the steady-state loop pays one extra atomic load per
//     iteration — nothing per packet. (Harnesses that drive the loop
//     themselves — HotPathBench fakes `started` without goroutines —
//     fall back to executing the closure inline under the mutex.)
//   - Bounded admission: the inbox rejects once rt.AdmissionQueue
//     commands are already waiting (Counters.AdmissionRejected), so a
//     runaway churn driver back-pressures instead of growing an
//     unbounded queue behind a busy loop.
//   - Drain/rebalance: DrainShard moves every control point off a shard
//     onto the surviving shards (Rebalance moves them back to their
//     NodeID-hash homes). A migration runs as one command on the source
//     shard's loop and splices the node into the destination under both
//     mutexes: the armed alarm re-arms at the exact same absolute tick
//     (the wheel rounds deadlines identically, so nothing fires early),
//     the in-flight (device, cycle) demux entry moves along and a
//     forwarding entry on the source redirects the reply that may
//     already be racing toward the old socket — no pending cycle is
//     lost and no false verdict is manufactured. Routed (ReusePort)
//     fleets embed the owning shard in the cycle number instead, so
//     there the prober is re-seeded into the destination's cycle space
//     (core.Prober.Rehome) and the in-flight cycle is abandoned
//     verdict-free.
//   - Live config: RuntimeConfig carries every knob that is safe to
//     flip on a running fleet (harden toggles, replay/pending windows,
//     admission rates, per-device probe budgets, the inbox bound).
//     SetConfig versions the master copy and pushes a snapshot to each
//     shard through the inbox; readers on the hot path see their
//     shard-local copy under the mutex they already hold.
//   - Overload shedding: beyond the bounded inbox, a per-device probe
//     budget (rt.PerDeviceProbeHz/Burst) meters how fast the fleet
//     probes any single device; probes over budget are shed before they
//     reach the wire (Counters.ProbesShed) — under overload the fleet
//     degrades to slower detection instead of amplifying load onto the
//     devices it monitors. SAPP's adaptive policy remains the
//     protocol-level knob; the budget is the runtime backstop.

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"presence/internal/ident"
	"presence/internal/trace"
)

// defaultAdmissionQueue bounds each shard's command inbox when the
// config leaves it zero: deep enough that a bulk provisioning burst
// (thousands of adds against a parked loop) queues without rejects,
// shallow enough that a stuck loop surfaces as back-pressure fast.
const defaultAdmissionQueue = 1024

// ErrAdmissionRejected reports an admin command refused because the
// target shard's bounded command inbox was full (Counters.
// AdmissionRejected). The fleet's state is unchanged; back off and
// retry.
var ErrAdmissionRejected = errors.New("fleet: admission queue full")

// errWrongShard is the internal retry signal for commands that chased a
// control point to a shard it migrated away from.
var errWrongShard = errors.New("fleet: node moved shards")

// shardCommand is one admin mutation bound for a shard's event loop.
// fn runs under the shard mutex like any engine call; done (buffered,
// may be nil) receives its error.
type shardCommand struct {
	fn   func(*shard) error
	done chan error
}

// enqueueCmd queues c on the shard's command inbox and wakes the loop,
// rejecting when the bounded queue is full. Safe from any goroutine.
func (s *shard) enqueueCmd(c shardCommand) error {
	if !s.cmd.put(c, int(s.fleet.admissionBound.Load())) {
		s.admRejected.Add(1)
		return ErrAdmissionRejected
	}
	s.conn.SetReadDeadline(pastDeadline) //nolint:errcheck // fails only when closed
	return nil
}

// drainCommands executes every queued admin command. Runs on the shard
// loop under the shard mutex, inside a send batch (so sends the
// commands coalesce flush with the iteration's burst).
func (s *shard) drainCommands() {
	q := s.cmd.take()
	for i := range q {
		if i > 0 {
			// Each command is an entry from outside the loop, deferred: a
			// queued burst of Adds must not all start on one instant.
			s.tick()
		}
		err := q[i].fn(s)
		if q[i].done != nil {
			q[i].done <- err
		}
	}
	s.cmd.recycle(q)
}

// runOn executes fn on s's event loop via the command inbox and waits
// for the result. When the loop is not running (fleet not Started, or
// a harness drives the loop itself) fn executes inline under the shard
// mutex — the same serialisation, just on the caller's goroutine.
func (f *Fleet) runOn(s *shard, fn func(*shard) error) error {
	if !s.loopStarted.Load() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return errClosed
		}
		s.tick() // no loop to have ticked for us
		return fn(s)
	}
	done := make(chan error, 1)
	if err := s.enqueueCmd(shardCommand{fn: fn, done: done}); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-s.loopDone:
		// The loop exited (fleet closing). The command may still have run
		// in the loop's final iteration — prefer its real result.
		select {
		case err := <-done:
			return err
		default:
			return errClosed
		}
	}
}

// RuntimeConfig carries every fleet setting that is safe to change
// while the fleet runs. Config embeds it as the startup value (version
// 1); Fleet.SetConfig installs a new configuration atomically per shard
// with a monotonic version; Fleet.ConfigSnapshot returns the current
// one. Zero fields take the defaults documented below, at startup and
// on every push alike.
type RuntimeConfig struct {
	// Harden enables the adversarial defenses. Without AuthKey the
	// protocol frames are unauthenticated, so an on-path attacker can
	// answer for the dead, say goodbye for the living, or reflect probes
	// off a device; Harden buys back correctness with receiver-local
	// state only — no wire change:
	//
	//   - Reply source pinning: a reply is accepted only from the probed
	//     device's address (Counters.RepliesForged otherwise, pending
	//     entry kept so the genuine reply can still land).
	//   - Replay window: accepted (device, cycle) keys are remembered for
	//     ReplayWindow, telling replayed copies (Counters.RepliesReplayed)
	//     apart from ordinary latecomers (DemuxDrops).
	//   - BYE source pinning + verification grace: a BYE from an address
	//     other than the device's is dropped (Counters.ByesForged), and
	//     even a well-sourced BYE for a healthy device triggers one
	//     verification probe cycle (core.ProberOptions.VerifyBye) instead
	//     of instant removal.
	//   - Per-source probe admission: hosted devices answer each source
	//     at most PerSourceProbeHz with PerSourceBurst slack; the excess
	//     of an amplification flood is shed (Counters.ProbesShed).
	//
	// Off (the default), the runtime behaves exactly as the paper's
	// protocols do — one spoofed frame can flip a verdict.
	//
	// Flipping it on mid-run hardens the reply/bye/probe paths
	// immediately; BYE verification (core.ProberOptions.VerifyBye) is a
	// per-prober option, so it applies to control points added after the
	// change.
	Harden bool
	// PendingTTL bounds how long an unanswered (device, cycle) demux
	// entry survives before the periodic sweep drops it (entries of
	// completed cycles are removed inline). Zero means 30 s.
	PendingTTL time.Duration
	// ReplayWindow bounds how long an accepted (device, cycle) demux key
	// is remembered to classify replayed replies. Zero means 5 s. Only
	// used when Harden is set.
	ReplayWindow time.Duration
	// PerSourceProbeHz and PerSourceBurst parameterise the per-source
	// probe admission token bucket of hosted devices (refill rate in
	// probes/s and bucket depth). Zero means 15 Hz and 20 — above the
	// paper's nominal 10 probes/s total DCPP device load even when one
	// source address carries all of it, so no honest DCPP/SAPP workload
	// is shed; raise both for protocols without device-controlled load
	// pinning (the naive baseline grows linearly with population). Only
	// used when Harden is set.
	PerSourceProbeHz float64
	PerSourceBurst   int
	// PerDeviceProbeHz and PerDeviceBurst meter how fast this fleet's
	// control points probe any single device — the overload-shedding
	// budget. A probe over budget is shed before it reaches the wire
	// (Counters.ProbesShed): the cycle behaves exactly as if the probe
	// were lost, so under overload detection degrades gracefully (slower
	// verdicts) instead of amplifying probe load onto the device. The
	// budget is enforced per shard; control points of one device spread
	// across shards each get the full rate, so size it accordingly.
	// PerDeviceProbeHz zero disables shedding (the default); Burst zero
	// with a positive rate means 16.
	PerDeviceProbeHz float64
	PerDeviceBurst   int
	// AdmissionQueue bounds each shard's admin-command inbox; commands
	// beyond it are rejected with ErrAdmissionRejected
	// (Counters.AdmissionRejected). Zero means 1024.
	AdmissionQueue int
	// AuthKey is the fleet's master pre-shared secret (LoadAuthKey reads
	// one from a keyfile). Non-empty enables frame authentication (wire
	// v2, auth.go): every frame sent is signed and every frame received
	// is verified; per-pair and per-device subkeys are HKDF-derived from
	// it, never used raw. Pushing a config whose AuthKey differs from
	// the live one rotates the keys: the old master stays accepted for
	// AuthRotationGrace (Counters.AuthStaleKey), then expires. Pushing
	// an empty AuthKey disables authentication. The slice is retained;
	// callers must not mutate it afterwards.
	AuthKey []byte
	// AuthRequire rejects every unauthenticated v1 frame, not only those
	// from devices that already spoke v2. Set it once the whole
	// population is authenticated; leave it unset during a rollout.
	// Requires AuthKey.
	AuthRequire bool
	// AuthRotationGrace bounds how long the previous master is still
	// accepted after a rotation, so frames in flight across the swap
	// cannot manufacture a verdict. Zero means 30 s (when AuthKey is
	// set).
	AuthRotationGrace time.Duration
}

func (rc *RuntimeConfig) applyDefaults() {
	if rc.PendingTTL == 0 {
		rc.PendingTTL = 30 * time.Second
	}
	if rc.ReplayWindow == 0 {
		rc.ReplayWindow = 5 * time.Second
	}
	if rc.PerSourceProbeHz == 0 {
		rc.PerSourceProbeHz = 15
	}
	if rc.PerSourceBurst == 0 {
		rc.PerSourceBurst = 20
	}
	if rc.PerDeviceProbeHz > 0 && rc.PerDeviceBurst == 0 {
		rc.PerDeviceBurst = 16
	}
	if rc.AdmissionQueue == 0 {
		rc.AdmissionQueue = defaultAdmissionQueue
	}
	if len(rc.AuthKey) > 0 && rc.AuthRotationGrace == 0 {
		rc.AuthRotationGrace = 30 * time.Second
	}
}

func (rc *RuntimeConfig) validate() error {
	if rc.PendingTTL < 0 || rc.ReplayWindow < 0 {
		return errors.New("fleet: negative TTL in runtime config")
	}
	if rc.PerSourceProbeHz < 0 || rc.PerSourceBurst < 0 ||
		rc.PerDeviceProbeHz < 0 || rc.PerDeviceBurst < 0 {
		return errors.New("fleet: negative rate or burst in runtime config")
	}
	if rc.AdmissionQueue < 0 {
		return errors.New("fleet: negative admission queue in runtime config")
	}
	if rc.AuthRequire && len(rc.AuthKey) == 0 {
		return errAuthRequireNoKey
	}
	if rc.AuthRotationGrace < 0 {
		return errors.New("fleet: negative auth rotation grace in runtime config")
	}
	return nil
}

// SetConfig installs rc (zeros defaulted) as the fleet's runtime
// configuration and pushes it to every shard through the command inbox.
// It returns the new config version — monotonic, starting at 1 for the
// startup Config. Shards pick the new config up one at a time; a
// scrape between pushes can observe both generations.
func (f *Fleet) SetConfig(rc RuntimeConfig) (uint64, error) {
	rc.applyDefaults()
	if err := rc.validate(); err != nil {
		return 0, err
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, errClosed
	}
	f.adminMu.Lock()
	f.rt = rc
	f.rtVer++
	ver := f.rtVer
	f.adminMu.Unlock()
	f.admissionBound.Store(int64(rc.AdmissionQueue))
	for _, s := range f.shards {
		if err := f.runOn(s, func(sh *shard) error {
			sh.applyConfigLocked(rc)
			return nil
		}); err != nil {
			return ver, err
		}
	}
	return ver, nil
}

// ConfigSnapshot returns the fleet's current runtime configuration and
// its version.
func (f *Fleet) ConfigSnapshot() (RuntimeConfig, uint64) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	return f.rt, f.rtVer
}

// applyConfigLocked installs rc as the shard's live configuration,
// allocating or dropping the optional state tables its toggles govern.
// Runs under the shard mutex.
func (s *shard) applyConfigLocked(rc RuntimeConfig) {
	s.rt = rc
	if rc.Harden {
		if s.completed == nil {
			s.completed = make(map[uint64]time.Duration)
		}
		if s.sources == nil {
			s.sources = make(map[netip.AddrPort]*srcBucket)
		}
	} else {
		s.completed, s.sources = nil, nil
	}
	if rc.PerDeviceProbeHz > 0 {
		if s.devBudget == nil {
			s.devBudget = make(map[ident.NodeID]*srcBucket)
		}
	} else {
		s.devBudget = nil
	}
	s.applyAuthLocked(&rc)
}

// admitDeviceProbe charges one outgoing probe against the device's
// token bucket, creating the bucket on first contact. Runs under the
// shard mutex; shedding only (s.devBudget is non-nil).
func (s *shard) admitDeviceProbe(device ident.NodeID) bool {
	now := s.now
	b := s.devBudget[device]
	if b == nil {
		b = &srcBucket{tokens: float64(s.rt.PerDeviceBurst), last: now}
		s.devBudget[device] = b
	}
	return b.take(now, s.rt.PerDeviceProbeHz, s.rt.PerDeviceBurst)
}

// HomeShard returns the shard index a node id hashes to — where
// Rebalance will put its control point.
func (f *Fleet) HomeShard(id ident.NodeID) int {
	return int(mix64(uint64(id)) % uint64(len(f.shards)))
}

// placeShard picks the shard for a new control point: its hash home,
// or — while that home is draining — the first non-draining shard
// after it.
func (f *Fleet) placeShard(id ident.NodeID) *shard {
	home := f.HomeShard(id)
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	if !f.draining[home] {
		return f.shards[home]
	}
	for k := 1; k < len(f.shards); k++ {
		if i := (home + k) % len(f.shards); !f.draining[i] {
			return f.shards[i]
		}
	}
	return f.shards[home]
}

// Draining reports, per shard, whether DrainShard has marked it
// draining (cleared by Rebalance).
func (f *Fleet) Draining() []bool {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	out := make([]bool, len(f.draining))
	copy(out, f.draining)
	return out
}

// RemoveControlPoint stops and unhooks the control point with the given
// id, wherever it is currently hosted. Equivalent to Remove on its
// handle, addressed by id — the admin-API spelling.
func (f *Fleet) RemoveControlPoint(id ident.NodeID) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return errClosed
	}
	f.adminMu.Lock()
	n := f.dir[id]
	f.adminMu.Unlock()
	if n == nil {
		return fmt.Errorf("fleet: control point %v not hosted", id)
	}
	for {
		s := n.sh()
		err := f.runOn(s, func(sh *shard) error {
			if n.sh() != sh {
				return errWrongShard // migrated while the command queued
			}
			sh.removeCPLocked(n)
			return nil
		})
		if err != errWrongShard {
			return err
		}
	}
}

// RemoveDevice stops and unhooks a hosted device engine, freeing its
// shard for a future AddDevice. Control points watching the device are
// untouched — they will declare it lost after their retransmit budget,
// exactly as if the device crashed; make the device Bye() first for a
// graceful leave.
func (f *Fleet) RemoveDevice(id ident.NodeID) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return errClosed
	}
	f.devMu.Lock()
	defer f.devMu.Unlock()
	f.adminMu.Lock()
	dn := f.devices[id]
	f.adminMu.Unlock()
	if dn == nil {
		return fmt.Errorf("fleet: device %v not hosted", id)
	}
	s := dn.shard
	if err := f.runOn(s, func(sh *shard) error {
		if sh.device != dn {
			return fmt.Errorf("fleet: device %v not hosted", id)
		}
		sh.wheel.Cancel(&dn.timer)
		sh.device = nil
		dn.removed = true
		return nil
	}); err != nil {
		return err
	}
	f.adminMu.Lock()
	delete(f.devices, id)
	f.adminMu.Unlock()
	f.deviceShard.CompareAndSwap(int32(s.index), -1)
	return nil
}

// DrainShard migrates every control point off shard idx onto the
// remaining shards (by hash home, skipping other draining shards) and
// marks the shard draining, so new control points avoid it until
// Rebalance. Hosted device engines stay — a device's probe address is
// its shard socket, so moving one would strand its probers; remove and
// re-add the device to relocate it. Control points added concurrently
// with the drain may land on the shard after its snapshot; drain again
// or Rebalance to sweep stragglers. Returns how many control points
// moved.
func (f *Fleet) DrainShard(idx int) (int, error) {
	if idx < 0 || idx >= len(f.shards) {
		return 0, fmt.Errorf("fleet: shard %d out of range [0,%d)", idx, len(f.shards))
	}
	if err := f.adminReady(); err != nil {
		return 0, err
	}
	f.migMu.Lock()
	defer f.migMu.Unlock()
	f.adminMu.Lock()
	f.draining[idx] = true
	avail := false
	for i := range f.draining {
		if !f.draining[i] {
			avail = true
			break
		}
	}
	if !avail {
		f.draining[idx] = false
		f.adminMu.Unlock()
		return 0, errors.New("fleet: cannot drain every shard")
	}
	f.adminMu.Unlock()
	src := f.shards[idx]
	return f.migrateFrom(src,
		func(ident.NodeID) bool { return true },
		func(id ident.NodeID) *shard { return f.placeShard(id) })
}

// Rebalance clears every draining mark and migrates every control
// point back to its NodeID-hash home shard. Returns how many moved.
func (f *Fleet) Rebalance() (int, error) {
	if err := f.adminReady(); err != nil {
		return 0, err
	}
	f.migMu.Lock()
	defer f.migMu.Unlock()
	f.adminMu.Lock()
	for i := range f.draining {
		f.draining[i] = false
	}
	f.adminMu.Unlock()
	moved := 0
	for _, src := range f.shards {
		m, err := f.migrateFrom(src,
			func(id ident.NodeID) bool { return f.shardFor(id) != src },
			func(id ident.NodeID) *shard { return f.shardFor(id) })
		moved += m
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// adminReady gates the mutation APIs on a started, open fleet.
func (f *Fleet) adminReady() error {
	f.mu.Lock()
	started, closed := f.started, f.closed
	f.mu.Unlock()
	if closed {
		return errClosed
	}
	if !started {
		return errors.New("fleet: Start before administering nodes")
	}
	return nil
}

// migrateFrom moves every control point on src that pick selects to
// the shard target chooses for it: one snapshot command, then one
// migration command per destination shard, all on src's event loop.
// Control points removed between snapshot and migration are skipped.
func (f *Fleet) migrateFrom(src *shard, pick func(ident.NodeID) bool, target func(ident.NodeID) *shard) (int, error) {
	var ids []ident.NodeID
	if err := f.runOn(src, func(sh *shard) error {
		for id := range sh.cps {
			if pick(id) {
				ids = append(ids, id)
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	groups := make(map[*shard][]ident.NodeID)
	for _, id := range ids {
		if dst := target(id); dst != src {
			groups[dst] = append(groups[dst], id)
		}
	}
	moved := 0
	for _, dst := range f.shards { // shard order: deterministic migration order
		g := groups[dst]
		if len(g) == 0 {
			continue
		}
		var m int
		if err := f.runOn(src, func(sh *shard) error {
			m = sh.migrateLocked(dst, g)
			return nil
		}); err != nil {
			return moved, err
		}
		moved += m
	}
	if moved > 0 {
		f.migratedAny.Store(true)
	}
	return moved, nil
}

// migrateLocked splices the named control points out of s and into
// dst. Runs on s's event loop under s's mutex and takes dst's mutex
// for the whole batch — the one place shard mutexes nest, safe because
// migrations are serialised by Fleet.migMu and no other path locks two
// shards.
//
// Per node: the armed alarm's absolute tick is captured before Cancel
// (Cancel bumps the generation and unlinks but leaves the deadline) and
// re-armed on dst at the same tick — Schedule rounds up and never
// fires early, so the alarm is at worst one poll late, never a false
// timeout. On an unrouted fleet the in-flight (device, cycle) demux
// entry moves to dst and a forwarding entry on s redirects the reply
// that may already be racing toward the old socket (dispatchFrame
// hands it off exactly like a ReusePort stray). On a routed fleet
// cycle numbers embed the owning shard, so the prober is re-seeded
// into dst's cycle space instead (core.Prober.Rehome) — the in-flight
// cycle is abandoned without a verdict and a fresh one opens
// immediately.
func (s *shard) migrateLocked(dst *shard, ids []ident.NodeID) int {
	fl := s.fleet
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed {
		return 0
	}
	// dst's loop may be parked: bring its clock up before its flight
	// events are stamped and before Rehome opens a cycle there.
	dst.tick()
	moved := 0
	for _, id := range ids {
		n := s.cps[id]
		if n == nil {
			continue
		}
		wasLinked := n.timer.linked()
		at := time.Duration(n.timer.deadline) * s.wheel.tick
		s.wheel.Cancel(&n.timer)
		delete(s.cps, id)
		if w := s.watchers[n.device]; w != nil {
			delete(w, n)
			if len(w) == 0 {
				delete(s.watchers, n.device)
				fl.dropWatcher(n.device, s.index)
			}
		}
		key := pendKey(n.device, n.lastCycle)
		pp, hadPending := s.pending[key]
		if hadPending && pp.cp == n {
			delete(s.pending, key)
		} else {
			hadPending = false
		}
		if !n.stopped {
			s.liveCPs--
		}

		n.owner.Store(dst)
		dst.cps[id] = n
		w := dst.watchers[n.device]
		if w == nil {
			w = make(map[*cpNode]struct{})
			dst.watchers[n.device] = w
		}
		w[n] = struct{}{}
		fl.noteWatcher(n.device, dst.index)
		if dst.auth.enabled {
			// Re-point the node at the destination's per-device auth state,
			// carrying the v2 high-water mark along so a migration cannot
			// reopen the downgrade window. The pair schedules stay: every
			// shard derives them from the same masters, and a divergent key
			// epoch re-derives on first use.
			st := dst.devAuthFor(n.device)
			if n.devAuth != nil && n.devAuth.seenV2 {
				st.seenV2 = true
			}
			n.devAuth = st
		} else {
			n.devAuth = nil
		}
		if !n.stopped {
			dst.liveCPs++
		}
		if wasLinked {
			dst.wheel.Schedule(&n.timer, at)
		}
		if fl.route {
			n.prober.Rehome(routedCycleSeed(cycleSeed(id), dst.index))
		} else if hadPending {
			if old, ok := dst.pending[key]; ok && old.cp != n {
				dst.counters.DemuxCollisions++
			}
			dst.pending[key] = pp
			if s.forwards == nil {
				s.forwards = make(map[uint64]forwardEntry)
			}
			s.forwards[key] = forwardEntry{to: dst, at: s.now}
		}
		if dst.rec != nil {
			// EvHandoff with no CP id: visible in /debug/flight, skipped by
			// trace.Normalize so migrations cannot perturb the byte-identical
			// per-CP timelines drain-equivalence tests compare.
			dst.rec.Record(trace.Event{At: dst.now, Kind: trace.EvHandoff,
				Device: n.device, Cycle: n.lastCycle})
		}
		dst.counters.Migrations++
		moved++
	}
	if moved > 0 {
		// Wake dst's loop: it may be parked past the earliest alarm that
		// just landed in its wheel.
		dst.conn.SetReadDeadline(pastDeadline) //nolint:errcheck // fails only when closed
	}
	return moved
}

// forwardEntry redirects the reply of a migrated in-flight probe cycle:
// the probe left the old shard's socket, so its reply lands there, but
// the (device, cycle) demux entry moved with the control point. The old
// shard keeps this breadcrumb until the sweep expires it (PendingTTL —
// the entry's cycle cannot complete after that anyway) and hands the
// reply off to the new shard like a ReusePort stray.
type forwardEntry struct {
	to *shard
	at time.Duration
}

// VerdictKind names a presence verdict for Config.Verdicts.
type VerdictKind uint8

const (
	// VerdictLost: a full probe cycle went unanswered — the device is
	// considered gone.
	VerdictLost VerdictKind = iota + 1
	// VerdictBye: the device announced a graceful leave (after
	// verification when hardened).
	VerdictBye
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictLost:
		return "lost"
	case VerdictBye:
		return "bye"
	default:
		return fmt.Sprintf("VerdictKind(%d)", uint8(k))
	}
}

// VerdictEvent is one terminal presence verdict, delivered to
// Config.Verdicts. It fires on the shard event loop under the shard
// mutex — handlers must be cheap, must not block and must not call
// back into the fleet (same contract as CPConfig.Listener).
type VerdictEvent struct {
	CP     ident.NodeID
	Device ident.NodeID
	Kind   VerdictKind
	At     time.Duration
}
