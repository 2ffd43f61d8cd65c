package fleet_test

// Hardening tests: the BYE verification grace across both paper
// protocols, and the always-on reply demux checks (attempt bitmask,
// source pinning) at the shard level. These drive a real fleet over an
// internal/memnet network with a test middlebox standing in for the
// on-path attacker, so the defenses are exercised through the same
// socket path production traffic takes.

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/core/sapp"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/wire"
)

// verdictLog is a thread-safe core.Listener recording verdicts.
type verdictLog struct {
	mu    sync.Mutex
	alive int
	lost  int
	byes  int
}

func (l *verdictLog) DeviceAlive(ident.NodeID, core.CycleResult) {
	l.mu.Lock()
	l.alive++
	l.mu.Unlock()
}

func (l *verdictLog) DeviceLost(ident.NodeID, time.Duration) {
	l.mu.Lock()
	l.lost++
	l.mu.Unlock()
}

func (l *verdictLog) DeviceBye(ident.NodeID, time.Duration) {
	l.mu.Lock()
	l.byes++
	l.mu.Unlock()
}

func (l *verdictLog) snapshot() (alive, lost, byes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alive, l.lost, l.byes
}

func hardenWaitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// byeAttacker modes.
const (
	modeIdle  int32 = iota // pass everything
	modeSpoof              // inject one spoofed BYE, device stays reachable
	modeLeave              // inject one BYE, then black-hole the device
)

// byeAttacker is a test middlebox spoofing device-sourced BYEs. In
// modeSpoof it forges exactly one BYE for a device that is still alive
// and answering — the attack the verification grace refutes. In
// modeLeave it forges one BYE and then drops every frame addressed to
// the device, emulating a graceful leave (BYE as the device's last
// act); verification finds silence and the CP must report DeviceBye,
// not DeviceLost.
type byeAttacker struct {
	device  ident.NodeID
	devAddr netip.AddrPort
	mode    atomic.Int32
	fired   atomic.Bool
	scratch wire.Frame
}

// arm resets the one-shot latch and switches mode.
func (a *byeAttacker) arm(mode int32) {
	a.fired.Store(false)
	a.mode.Store(mode)
}

func (a *byeAttacker) Process(_ time.Duration, from, to netip.AddrPort, frame []byte, inj memnet.Injector) memnet.Action {
	mode := a.mode.Load()
	if mode == modeIdle || to != a.devAddr {
		return memnet.Pass
	}
	if wire.DecodeFrame(frame, &a.scratch) == nil && a.scratch.Kind == wire.KindProbe && !a.fired.Swap(true) {
		bye, _ := wire.AppendEncodeFrame(nil, &wire.Frame{Kind: wire.KindBye, From: a.device})
		inj.Inject(a.devAddr, from, bye)
	}
	if mode == modeLeave {
		return memnet.Drop
	}
	return memnet.Pass
}

// TestHardenedByeGrace runs the BYE verification grace end to end for
// both paper protocols: a spoofed BYE for a live device is refuted by
// one probe cycle and the CP keeps monitoring; a BYE followed by
// silence is confirmed and classified DeviceBye (never DeviceLost).
func TestHardenedByeGrace(t *testing.T) {
	const devID = ident.NodeID(7)
	cases := []struct {
		name   string
		device func(env core.Env) (core.Device, error)
		policy func(t *testing.T) core.DelayPolicy
	}{
		{
			name: "dcpp",
			device: func(env core.Env) (core.Device, error) {
				return dcpp.NewDevice(devID, env, dcpp.DeviceConfig{
					MinGap: 5 * time.Millisecond, MinCPDelay: 20 * time.Millisecond,
				})
			},
			policy: func(t *testing.T) core.DelayPolicy {
				p, err := dcpp.NewPolicy(dcpp.PolicyConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "sapp",
			device: func(env core.Env) (core.Device, error) {
				return sapp.NewDevice(devID, env, sapp.DefaultDeviceConfig())
			},
			policy: func(t *testing.T) core.DelayPolicy {
				cfg := sapp.DefaultCPConfig()
				cfg.MinDelay = 20 * time.Millisecond
				cfg.MaxDelay = 100 * time.Millisecond
				p, err := sapp.NewPolicy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := memnet.New(memnet.Faults{})
			defer net.Close()
			transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

			devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer devFleet.Close()
			if err := devFleet.Start(); err != nil {
				t.Fatal(err)
			}
			dev, err := devFleet.AddDevice(devID, tc.device)
			if err != nil {
				t.Fatal(err)
			}

			cpFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: fleet.RuntimeConfig{Harden: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer cpFleet.Close()
			if err := cpFleet.Start(); err != nil {
				t.Fatal(err)
			}
			lst := &verdictLog{}
			cp, err := cpFleet.AddControlPoint(fleet.CPConfig{
				ID: 100, Device: devID, DeviceAddrPort: dev.Addr(),
				Policy: tc.policy(t), Listener: lst,
				Retransmit: core.RetransmitConfig{
					FirstTimeout:   60 * time.Millisecond,
					RetryTimeout:   40 * time.Millisecond,
					MaxRetransmits: 3,
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			attacker := &byeAttacker{device: devID, devAddr: dev.Addr()}
			net.AddMiddlebox(attacker)

			hardenWaitFor(t, 5*time.Second, "steady state", func() bool {
				return cp.Stats().CyclesOK >= 2
			})

			// Phase 1: spoofed BYE while the device is alive. The CP must
			// verify, see the device answer, and keep monitoring.
			attacker.arm(modeSpoof)
			hardenWaitFor(t, 5*time.Second, "spoofed BYE refuted", func() bool {
				return cp.Stats().SpoofedByes >= 1
			})
			st := cp.Stats()
			if st.ByeVerifications == 0 {
				t.Error("spoofed BYE did not trigger a verification cycle")
			}
			if cp.Stopped() {
				t.Fatal("CP stopped on a spoofed BYE")
			}
			if _, lost, byes := lst.snapshot(); lost != 0 || byes != 0 {
				t.Fatalf("false verdict on spoofed BYE: lost=%d byes=%d", lost, byes)
			}
			before := cp.Stats().CyclesOK
			hardenWaitFor(t, 5*time.Second, "monitoring to continue", func() bool {
				return cp.Stats().CyclesOK >= before+2
			})

			// Phase 2: BYE followed by silence — a genuine graceful leave.
			// Verification fails and the verdict must be DeviceBye.
			attacker.arm(modeLeave)
			hardenWaitFor(t, 5*time.Second, "bye verdict", func() bool {
				_, _, byes := lst.snapshot()
				return byes == 1
			})
			if !cp.Stopped() {
				t.Fatal("CP still running after confirmed BYE")
			}
			if _, lost, _ := lst.snapshot(); lost != 0 {
				t.Fatalf("confirmed BYE misclassified: lost=%d", lost)
			}
		})
	}
}

// fakeDeviceRig hosts one CP probing a bare memnet endpoint the test
// controls, so it can answer probes with precisely crafted frames.
type fakeDeviceRig struct {
	net *memnet.Network
	f   *fleet.Fleet
	cp  *fleet.ControlPoint
	dev *memnet.Endpoint
}

func newFakeDeviceRig(t *testing.T, harden bool) *fakeDeviceRig {
	t.Helper()
	net := memnet.New(memnet.Faults{})
	t.Cleanup(func() { net.Close() })
	dev, err := net.Listen()
	if err != nil {
		t.Fatal(err)
	}
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
	f, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: fleet.RuntimeConfig{Harden: harden}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	policy, err := naive.NewPolicy(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := f.AddControlPoint(fleet.CPConfig{
		ID: 100, Device: 7, DeviceAddrPort: dev.LocalAddrPort(),
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
	return &fakeDeviceRig{net: net, f: f, cp: cp, dev: dev}
}

// readProbe blocks for the next probe addressed to the fake device.
func (r *fakeDeviceRig) readProbe(t *testing.T) (wire.Frame, netip.AddrPort) {
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

// reply sends an empty reply for the probed cycle from the given
// endpoint with the given attempt number.
func (r *fakeDeviceRig) reply(t *testing.T, from *memnet.Endpoint, to netip.AddrPort, cycle uint32, attempt uint8) {
	t.Helper()
	frame, err := wire.AppendEncodeFrame(nil, &wire.Frame{
		Kind: wire.KindReplyEmpty, From: 7, Cycle: cycle, Attempt: attempt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := from.WriteToUDPAddrPort(frame, to); err != nil {
		t.Fatal(err)
	}
}

// TestAttemptMismatchKeepsPending: a reply whose attempt number was
// never sent is rejected and counted, the pending demux entry survives
// the rejection, and the genuine reply still completes the cycle. The
// attempt bitmask is always on — this fleet is NOT hardened.
func TestAttemptMismatchKeepsPending(t *testing.T) {
	rig := newFakeDeviceRig(t, false)
	probe, cpAddr := rig.readProbe(t)

	// Only attempt 0 was sent: a different in-range attempt and an
	// out-of-range one (the bitmask covers attempts 0-31) must both miss.
	rig.reply(t, rig.dev, cpAddr, probe.Cycle, probe.Attempt+9)
	rig.reply(t, rig.dev, cpAddr, probe.Cycle, 40)
	hardenWaitFor(t, 5*time.Second, "mismatches counted", func() bool {
		return rig.f.Snapshot().Total.AttemptMismatches >= 2
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 0 {
		t.Fatalf("forged-attempt reply completed %d cycles", ok)
	}
	if got := rig.f.Snapshot().Total.PendingProbes; got != 1 {
		t.Fatalf("pending entries after rejected replies = %d, want 1", got)
	}

	rig.reply(t, rig.dev, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "genuine reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})
}

// TestHardenedSourcePinning: a hardened shard rejects a well-formed
// reply (right device, cycle and attempt) arriving from an address
// other than the device's, keeps the pending entry, and accepts the
// genuine reply afterwards.
func TestHardenedSourcePinning(t *testing.T) {
	rig := newFakeDeviceRig(t, true)
	attacker, err := rig.net.Listen()
	if err != nil {
		t.Fatal(err)
	}
	probe, cpAddr := rig.readProbe(t)

	rig.reply(t, attacker, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "forged reply counted", func() bool {
		return rig.f.Snapshot().Total.RepliesForged >= 1
	})
	if ok := rig.cp.Stats().CyclesOK; ok != 0 {
		t.Fatalf("forged-source reply completed %d cycles", ok)
	}
	if got := rig.f.Snapshot().Total.PendingProbes; got != 1 {
		t.Fatalf("pending entries after forged reply = %d, want 1", got)
	}

	rig.reply(t, rig.dev, cpAddr, probe.Cycle, probe.Attempt)
	hardenWaitFor(t, 5*time.Second, "genuine reply accepted", func() bool {
		return rig.cp.Stats().CyclesOK >= 1
	})
}
