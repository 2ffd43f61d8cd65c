package fleet_test

// Authentication tests: the fleet-level key plane end to end. Two
// angles of attack. End-to-end fleets (real devices, real CPs over
// memnet) pin the benign properties — authenticated monitoring
// completes cycles, live key rotation never manufactures a verdict,
// v1↔v2 mixed fleets interoperate during a rollout. A rig hosting one
// CP against a bare memnet endpoint pins the adversarial properties
// frame by frame: tampered tags and wrong keys are rejected with the
// pending entry kept, the rotation grace accepts the old key only
// inside its window, and the per-device v2 high-water mark makes the
// v1 fallback downgrade-proof.

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/wire"
)

var (
	authMaster1 = []byte("auth-test-master-one")
	authMaster2 = []byte("auth-test-master-two")
	authMaster3 = []byte("auth-test-master-three")
)

const (
	authCPID  = ident.NodeID(100)
	authDevID = ident.NodeID(7)
)

// authPairKey derives the (CP, device) pair schedule the rig's crafted
// replies are signed with — the same derivation both fleet endpoints
// perform.
func authPairKey(t *testing.T, master []byte) *wire.AuthKey {
	t.Helper()
	k, err := wire.DeriveKey(master, wire.PairInfo(authCPID, authDevID))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// authRig hosts one authenticated CP probing a bare memnet endpoint the
// test controls, so every reply frame is crafted byte for byte.
type authRig struct {
	net *memnet.Network
	f   *fleet.Fleet
	cp  *fleet.ControlPoint
	dev *memnet.Endpoint
}

func newAuthRig(t *testing.T, auth fleet.RuntimeConfig) *authRig {
	t.Helper()
	net := memnet.New(memnet.Faults{})
	t.Cleanup(func() { net.Close() })
	dev, err := net.Listen()
	if err != nil {
		t.Fatal(err)
	}
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
	f, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: auth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	policy, err := naive.NewPolicy(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := f.AddControlPoint(fleet.CPConfig{
		ID: authCPID, Device: authDevID, DeviceAddrPort: dev.LocalAddrPort(),
		Policy: policy,
		// Generous timeouts: exactly one attempt stays outstanding while
		// the test feeds the demux hand-crafted replies.
		Retransmit: core.RetransmitConfig{
			FirstTimeout: 30 * time.Second,
			RetryTimeout: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &authRig{net: net, f: f, cp: cp, dev: dev}
}

// readProbe blocks for the next probe addressed to the fake device.
func (r *authRig) readProbe(t *testing.T) (wire.Frame, netip.AddrPort) {
	t.Helper()
	buf := make([]byte, wire.MaxFrameSize)
	if err := r.dev.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		n, from, err := r.dev.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("reading probe: %v", err)
		}
		var f wire.Frame
		if wire.DecodeFrame(buf[:n], &f) != nil || f.Kind != wire.KindProbe {
			continue
		}
		return f, from
	}
}

// replyAuth answers a probe with a v2 reply signed under the pair key
// derived from master.
func (r *authRig) replyAuth(t *testing.T, to netip.AddrPort, cycle uint32, attempt uint8, master []byte) {
	t.Helper()
	frame, err := wire.AppendEncodeFrameAuth(nil, &wire.Frame{
		Kind: wire.KindReplyEmpty, From: authDevID, Cycle: cycle, Attempt: attempt,
	}, authPairKey(t, master))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.dev.WriteToUDPAddrPort(frame, to); err != nil {
		t.Fatal(err)
	}
}

// replyV1 answers a probe with an unauthenticated v1 reply.
func (r *authRig) replyV1(t *testing.T, to netip.AddrPort, cycle uint32, attempt uint8) {
	t.Helper()
	frame, err := wire.AppendEncodeFrame(nil, &wire.Frame{
		Kind: wire.KindReplyEmpty, From: authDevID, Cycle: cycle, Attempt: attempt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.dev.WriteToUDPAddrPort(frame, to); err != nil {
		t.Fatal(err)
	}
}

// rotate pushes a new master key (and grace) through the admin plane,
// preserving the rest of the runtime config.
func (r *authRig) rotate(t *testing.T, key []byte, grace time.Duration) {
	t.Helper()
	rc, _ := r.f.ConfigSnapshot()
	rc.AuthKey = key
	rc.AuthRotationGrace = grace
	if _, err := r.f.SetConfig(rc); err != nil {
		t.Fatal(err)
	}
}

func (r *authRig) counters() fleet.Counters { return r.f.Snapshot().Total }

// TestAuthEndToEnd runs authenticated monitoring between two real
// fleets sharing a master key, in Require mode: cycles complete over
// signed-and-verified frames only, the device's signed BYE lands as a
// DeviceBye verdict, and nothing is rejected or downgraded.
func TestAuthEndToEnd(t *testing.T) {
	net := memnet.New(memnet.Faults{})
	defer net.Close()
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
	auth := fleet.RuntimeConfig{AuthKey: authMaster1, AuthRequire: true}

	devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer devFleet.Close()
	if err := devFleet.Start(); err != nil {
		t.Fatal(err)
	}
	dev, err := devFleet.AddDevice(authDevID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(authDevID, env)
	})
	if err != nil {
		t.Fatal(err)
	}

	cpFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		t.Fatal(err)
	}
	policy, err := naive.NewPolicy(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	lst := &verdictLog{}
	cp, err := cpFleet.AddControlPoint(fleet.CPConfig{
		ID: authCPID, Device: authDevID, DeviceAddrPort: dev.Addr(),
		Policy: policy, Listener: lst,
		Retransmit: core.RetransmitConfig{
			FirstTimeout: 30 * time.Second,
			RetryTimeout: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	hardenWaitFor(t, 5*time.Second, "authenticated cycles", func() bool {
		return cp.Stats().CyclesOK >= 3
	})

	// The device leaves gracefully: its BYE travels signed under the
	// broadcast key and must land as a DeviceBye verdict.
	dev.Bye()
	hardenWaitFor(t, 5*time.Second, "signed BYE verdict", func() bool {
		_, _, byes := lst.snapshot()
		return byes == 1
	})
	if _, lost, _ := lst.snapshot(); lost != 0 {
		t.Fatalf("signed BYE misclassified as lost: lost=%d", lost)
	}

	for name, c := range map[string]fleet.Counters{
		"cp": cpFleet.Snapshot().Total, "dev": devFleet.Snapshot().Total,
	} {
		if c.AuthVerified == 0 {
			t.Errorf("%s fleet verified no frames; authentication not exercised", name)
		}
		if c.AuthRejected != 0 || c.AuthDowngraded != 0 || c.AuthStaleKey != 0 {
			t.Errorf("%s fleet rejected genuine traffic: %+v", name, c)
		}
	}
}

// TestAuthMixedVersionFleets pins rollout interop in both directions: a
// v2 (authenticated, non-Require) fleet paired with a v1 (auth-off)
// fleet completes cycles with no rejections and no false verdicts —
// the v2 side accepts the peer's v1 frames (it never spoke v2) and the
// v1 side ignores tags it does not know about.
func TestAuthMixedVersionFleets(t *testing.T) {
	cases := []struct {
		name            string
		devAuth, cpAuth fleet.RuntimeConfig
	}{
		{name: "v2-device-v1-cp", devAuth: fleet.RuntimeConfig{AuthKey: authMaster1}},
		{name: "v1-device-v2-cp", cpAuth: fleet.RuntimeConfig{AuthKey: authMaster1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := memnet.New(memnet.Faults{})
			defer net.Close()
			transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

			devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: tc.devAuth})
			if err != nil {
				t.Fatal(err)
			}
			defer devFleet.Close()
			if err := devFleet.Start(); err != nil {
				t.Fatal(err)
			}
			dev, err := devFleet.AddDevice(authDevID, func(env core.Env) (core.Device, error) {
				return naive.NewDevice(authDevID, env)
			})
			if err != nil {
				t.Fatal(err)
			}

			cpFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: tc.cpAuth})
			if err != nil {
				t.Fatal(err)
			}
			defer cpFleet.Close()
			if err := cpFleet.Start(); err != nil {
				t.Fatal(err)
			}
			policy, err := naive.NewPolicy(10 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			lst := &verdictLog{}
			cp, err := cpFleet.AddControlPoint(fleet.CPConfig{
				ID: authCPID, Device: authDevID, DeviceAddrPort: dev.Addr(),
				Policy: policy, Listener: lst,
				Retransmit: core.RetransmitConfig{
					FirstTimeout: 30 * time.Second,
					RetryTimeout: 30 * time.Second,
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			hardenWaitFor(t, 5*time.Second, "mixed-version cycles", func() bool {
				return cp.Stats().CyclesOK >= 3
			})
			if _, lost, byes := lst.snapshot(); lost != 0 || byes != 0 {
				t.Fatalf("mixed-version fleets produced a false verdict: lost=%d byes=%d", lost, byes)
			}
			for name, c := range map[string]fleet.Counters{
				"cp": cpFleet.Snapshot().Total, "dev": devFleet.Snapshot().Total,
			} {
				if c.AuthRejected != 0 || c.AuthDowngraded != 0 {
					t.Errorf("%s fleet rejected rollout traffic: %+v", name, c)
				}
			}
		})
	}
}

// TestAuthRotationGrace drives one key rotation frame by frame: the
// probe's cycle starts under the old key, the rotation lands mid-cycle,
// and the old-key reply still completes it (AuthStaleKey) — then the
// next cycle signs under the new key and an old-key reply after the
// grace expires is rejected with the pending entry kept.
func TestAuthRotationGrace(t *testing.T) {
	rig := newAuthRig(t, fleet.RuntimeConfig{AuthKey: authMaster1})

	// Cycle 1 under the original key, completed by an old-fashioned
	// matching reply: the baseline.
	probe, cpAddr := rig.readProbe(t)
	if probe.Version != wire.VersionAuth {
		t.Fatalf("authenticated CP sent a v%d probe", probe.Version)
	}
	if !authPairKey(t, authMaster1).VerifyFrame(&probe) {
		t.Fatal("probe tag does not verify under the derived pair key")
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster1)
	hardenWaitFor(t, 5*time.Second, "baseline cycle", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})

	// Cycle 2: probe in flight, key rotates, reply arrives signed with
	// the key the cycle STARTED under. The grace must accept it.
	probe, cpAddr = rig.readProbe(t)
	rig.rotate(t, authMaster2, 10*time.Second)
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster1)
	hardenWaitFor(t, 5*time.Second, "mid-rotation cycle", func() bool {
		return rig.cp.Stats().CyclesOK >= 2
	})
	if c := rig.counters(); c.AuthStaleKey == 0 {
		t.Error("old-key reply inside grace not counted AuthStaleKey")
	} else if c.AuthRejected != 0 {
		t.Errorf("old-key reply inside grace rejected: %+v", c)
	}

	// Cycle 3 signs under the new key.
	probe, cpAddr = rig.readProbe(t)
	if !authPairKey(t, authMaster2).VerifyFrame(&probe) {
		t.Fatal("post-rotation probe not signed under the new key")
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster2)
	hardenWaitFor(t, 5*time.Second, "new-key cycle", func() bool {
		return rig.cp.Stats().CyclesOK >= 3
	})

	// Rotate again with a tiny grace and let it expire: the previous
	// key's frames must now be rejected — and the pending entry kept, so
	// the genuine reply still lands.
	rig.rotate(t, authMaster3, 50*time.Millisecond)
	time.Sleep(120 * time.Millisecond)
	probe, cpAddr = rig.readProbe(t)
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster2)
	hardenWaitFor(t, 5*time.Second, "expired-key reply rejected", func() bool {
		return rig.counters().AuthRejected >= 1
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 3 {
		t.Fatalf("expired-key reply completed a cycle: CyclesOK=%d", ok)
	}
	if got := rig.counters().PendingProbes; got != 1 {
		t.Fatalf("pending entries after rejected reply = %d, want 1", got)
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster3)
	hardenWaitFor(t, 5*time.Second, "current-key reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 4
	})
}

// TestAuthTamperRejected: a reply with a flipped tag bit and a reply
// signed under the wrong master are both rejected (AuthRejected), the
// pending entry survives, and the genuine reply still completes the
// cycle — forgery cannot starve a cycle into a false verdict.
func TestAuthTamperRejected(t *testing.T) {
	rig := newAuthRig(t, fleet.RuntimeConfig{AuthKey: authMaster1})
	probe, cpAddr := rig.readProbe(t)

	frame, err := wire.AppendEncodeFrameAuth(nil, &wire.Frame{
		Kind: wire.KindReplyEmpty, From: authDevID, Cycle: probe.Cycle, Attempt: probe.Attempt,
	}, authPairKey(t, authMaster1))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Clone(frame)
	tampered[len(tampered)-1] ^= 0x01 // last tag byte
	if _, err := rig.dev.WriteToUDPAddrPort(tampered, cpAddr); err != nil {
		t.Fatal(err)
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, []byte("not-the-master"))
	hardenWaitFor(t, 5*time.Second, "tampered replies rejected", func() bool {
		return rig.counters().AuthRejected >= 2
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 0 {
		t.Fatalf("tampered reply completed %d cycles", ok)
	}
	if got := rig.counters().PendingProbes; got != 1 {
		t.Fatalf("pending entries after tampered replies = %d, want 1", got)
	}

	if _, err := rig.dev.WriteToUDPAddrPort(frame, cpAddr); err != nil {
		t.Fatal(err)
	}
	hardenWaitFor(t, 5*time.Second, "genuine reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})
}

// TestAuthDowngradeHighWater: with auth enabled but not required, a v1
// reply is accepted while the device has never spoken v2 (rollout
// interop) — but after one verified v2 reply the high-water mark
// latches and v1 replies are rejected for good (AuthDowngraded), with
// the pending entry kept.
func TestAuthDowngradeHighWater(t *testing.T) {
	rig := newAuthRig(t, fleet.RuntimeConfig{AuthKey: authMaster1})

	// Phase 1: the device still speaks v1 — accepted.
	probe, cpAddr := rig.readProbe(t)
	rig.replyV1(t, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "v1 reply accepted pre-upgrade", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})

	// Phase 2: the device upgrades — one verified v2 reply.
	probe, cpAddr = rig.readProbe(t)
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster1)
	hardenWaitFor(t, 5*time.Second, "v2 reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 2
	})

	// Phase 3: a "device" speaking v1 again is an attacker stripping
	// tags. Rejected, pending kept, and the real v2 reply still lands.
	probe, cpAddr = rig.readProbe(t)
	rig.replyV1(t, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "downgrade rejected", func() bool {
		return rig.counters().AuthDowngraded >= 1
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 2 {
		t.Fatalf("downgraded reply completed a cycle: CyclesOK=%d", ok)
	}
	if got := rig.counters().PendingProbes; got != 1 {
		t.Fatalf("pending entries after downgraded reply = %d, want 1", got)
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster1)
	hardenWaitFor(t, 5*time.Second, "v2 reply after downgrade attempt", func() bool {
		return rig.cp.Stats().CyclesOK >= 3
	})
}

// TestAuthRequireRejectsV1: in Require mode even a first-contact v1
// reply is rejected — no rollout window at all.
func TestAuthRequireRejectsV1(t *testing.T) {
	rig := newAuthRig(t, fleet.RuntimeConfig{AuthKey: authMaster1, AuthRequire: true})
	probe, cpAddr := rig.readProbe(t)
	rig.replyV1(t, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "v1 reply rejected", func() bool {
		return rig.counters().AuthDowngraded >= 1
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 0 {
		t.Fatalf("unauthenticated reply completed %d cycles under Require", ok)
	}
	rig.replyAuth(t, cpAddr, probe.Cycle, probe.Attempt, authMaster1)
	hardenWaitFor(t, 5*time.Second, "authenticated reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})
}

// TestAuthConfigValidation pins the config plane's error cases: Require
// without a key (at construction and via SetConfig), a negative grace,
// and LoadAuthKey — content trimmed, missing and empty files rejected.
func TestAuthConfigValidation(t *testing.T) {
	if _, err := fleet.New(fleet.Config{RuntimeConfig: fleet.RuntimeConfig{AuthRequire: true}}); err == nil {
		t.Error("New accepted Require without a key")
	}

	f, err := fleet.New(fleet.Config{Shards: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rc, _ := f.ConfigSnapshot()
	rc.AuthRequire = true
	if _, err := f.SetConfig(rc); err == nil {
		t.Error("SetConfig accepted AuthRequire without a key")
	}
	rc, _ = f.ConfigSnapshot()
	rc.AuthKey = authMaster1
	rc.AuthRotationGrace = -time.Second
	if _, err := f.SetConfig(rc); err == nil {
		t.Error("SetConfig accepted a negative rotation grace")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "master.key")
	if err := os.WriteFile(path, []byte("  file-master-secret\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := fleet.LoadAuthKey(path)
	if err != nil {
		t.Fatalf("LoadAuthKey: %v", err)
	}
	if string(key) != "file-master-secret" {
		t.Errorf("keyfile master = %q, want trimmed file content", key)
	}

	if _, err := fleet.LoadAuthKey(filepath.Join(dir, "absent.key")); err == nil {
		t.Error("LoadAuthKey accepted a missing file")
	}
	empty := filepath.Join(dir, "empty.key")
	if err := os.WriteFile(empty, []byte(" \n\t"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.LoadAuthKey(empty); err == nil {
		t.Error("LoadAuthKey accepted a whitespace-only file")
	}
}
