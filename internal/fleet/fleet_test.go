package fleet

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/core/sapp"
	"presence/internal/ident"
)

// fastDCPP keeps wall-clock test time low: L_nom = 200/s, f_max = 50/s.
func fastDCPP() dcpp.DeviceConfig {
	return dcpp.DeviceConfig{MinGap: 5 * time.Millisecond, MinCPDelay: 20 * time.Millisecond}
}

func fastRetransmit() core.RetransmitConfig {
	return core.RetransmitConfig{
		FirstTimeout:   60 * time.Millisecond,
		RetryTimeout:   40 * time.Millisecond,
		MaxRetransmits: 3,
	}
}

// countingListener is a thread-safe listener recording events.
type countingListener struct {
	mu    sync.Mutex
	alive int
	lost  int
	byes  int
}

func (l *countingListener) DeviceAlive(ident.NodeID, core.CycleResult) {
	l.mu.Lock()
	l.alive++
	l.mu.Unlock()
}

func (l *countingListener) DeviceLost(ident.NodeID, time.Duration) {
	l.mu.Lock()
	l.lost++
	l.mu.Unlock()
}

func (l *countingListener) DeviceBye(ident.NodeID, time.Duration) {
	l.mu.Lock()
	l.byes++
	l.mu.Unlock()
}

func (l *countingListener) snapshot() (alive, lost, byes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alive, l.lost, l.byes
}

func startedFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

func addDCPPDevice(t *testing.T, f *Fleet, id ident.NodeID, cfg dcpp.DeviceConfig) *Device {
	t.Helper()
	dev, err := f.AddDevice(id, func(env core.Env) (core.Device, error) {
		return dcpp.NewDevice(id, env, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func addDCPPCP(t *testing.T, f *Fleet, id, device ident.NodeID, addr string, lst core.Listener) *ControlPoint {
	t.Helper()
	policy, err := dcpp.NewPolicy(dcpp.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := f.AddControlPoint(CPConfig{
		ID: id, Device: device, DeviceAddr: addr,
		Policy: policy, Listener: lst, Retransmit: fastRetransmit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(Config{ListenAddr: "not-an-addr:xx"}); err == nil {
		t.Error("bad listen address accepted")
	}
	if _, err := New(Config{Shards: 2, ListenAddr: "127.0.0.1:9555"}); err == nil {
		t.Error("pinned port with multiple shards accepted")
	}
	f, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Adds before Start are rejected.
	if _, err := f.AddControlPoint(CPConfig{ID: 1, Device: 2, DeviceAddr: "127.0.0.1:1", Policy: mustNaive(t)}); err == nil {
		t.Error("AddControlPoint before Start accepted")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("double Start accepted")
	}
	if _, err := f.AddControlPoint(CPConfig{Device: 2, DeviceAddr: "127.0.0.1:1", Policy: mustNaive(t)}); err == nil {
		t.Error("invalid CP id accepted")
	}
	if _, err := f.AddControlPoint(CPConfig{ID: 1, DeviceAddr: "127.0.0.1:1", Policy: mustNaive(t)}); err == nil {
		t.Error("invalid device id accepted")
	}
	if _, err := f.AddControlPoint(CPConfig{ID: 1, Device: 2, DeviceAddr: "127.0.0.1:1"}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := f.AddControlPoint(CPConfig{ID: 1, Device: 2, DeviceAddr: "nope:xx", Policy: mustNaive(t)}); err == nil {
		t.Error("bad device address accepted")
	}
	if _, err := f.AddDevice(0, nil); err == nil {
		t.Error("invalid device accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close errored: %v", err)
	}
	if _, err := f.AddControlPoint(CPConfig{ID: 1, Device: 2, DeviceAddr: "127.0.0.1:1", Policy: mustNaive(t)}); err == nil {
		t.Error("Add after Close accepted")
	}
}

func mustNaive(t *testing.T) core.DelayPolicy {
	t.Helper()
	p, err := naive.NewPolicy(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetIntraFleetLoopback hosts devices and CPs in the same fleet:
// probes leave one shard socket and come back in through another (or
// the same), exercising the full demux path.
func TestFleetIntraFleetLoopback(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	addr := dev.Addr().String()
	logs := make([]*countingListener, 8)
	cps := make([]*ControlPoint, len(logs))
	for i := range cps {
		logs[i] = &countingListener{}
		cps[i] = addDCPPCP(t, f, ident.NodeID(100+i), 1, addr, logs[i])
	}
	waitFor(t, 5*time.Second, "all CPs to complete 5 cycles", func() bool {
		for _, cp := range cps {
			if cp.Stats().CyclesOK < 5 {
				return false
			}
		}
		return true
	})
	for i, l := range logs {
		alive, lost, _ := l.snapshot()
		if alive < 5 || lost != 0 {
			t.Fatalf("cp%d events: alive=%d lost=%d", i, alive, lost)
		}
	}
	if got := dev.Peers(); got != len(cps) {
		t.Fatalf("device heard from %d peers, want %d", got, len(cps))
	}
	snap := f.Snapshot()
	if snap.Total.ControlPoints != len(cps) || snap.Total.LiveControlPoints != len(cps) {
		t.Fatalf("snapshot gauges = %+v", snap.Total)
	}
	if snap.Total.Devices != 1 {
		t.Fatalf("snapshot devices = %d", snap.Total.Devices)
	}
	if snap.Total.DecodeErrors != 0 || snap.Total.DemuxCollisions != 0 {
		t.Fatalf("snapshot errors = %+v", snap.Total)
	}
	// The aggregate must equal the per-shard sums.
	var sum Counters
	for _, c := range snap.Shards {
		sum.Add(&c)
	}
	if sum != snap.Total {
		t.Fatalf("Total %+v != per-shard sum %+v", snap.Total, sum)
	}
}

func TestFleetByeAndRestart(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	lst := &countingListener{}
	cp := addDCPPCP(t, f, 50, 1, dev.Addr().String(), lst)
	waitFor(t, 3*time.Second, "first cycles", func() bool { return cp.Stats().CyclesOK >= 2 })
	dev.Bye()
	waitFor(t, 2*time.Second, "bye", func() bool { _, _, byes := lst.snapshot(); return byes == 1 })
	if !cp.Stopped() {
		t.Fatal("CP still running after bye")
	}
	if snap := f.Snapshot(); snap.Total.LiveControlPoints != 0 {
		t.Fatalf("live gauge after bye = %d", snap.Total.LiveControlPoints)
	}
	if err := cp.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "cycles after restart", func() bool { return cp.Stats().CyclesOK >= 3 })
	if snap := f.Snapshot(); snap.Total.LiveControlPoints != 1 {
		t.Fatalf("live gauge after restart = %d", snap.Total.LiveControlPoints)
	}
}

func TestFleetCrashDetection(t *testing.T) {
	// Device hosted in a second fleet; closing it is a silent crash.
	devFleet := startedFleet(t, Config{Shards: 1})
	dev := addDCPPDevice(t, devFleet, 1, fastDCPP())
	f := startedFleet(t, Config{Shards: 2})
	lst := &countingListener{}
	cp := addDCPPCP(t, f, 60, 1, dev.Addr().String(), lst)
	waitFor(t, 3*time.Second, "first cycles", func() bool { return cp.Stats().CyclesOK >= 2 })
	if err := devFleet.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "loss detection", func() bool { _, lost, _ := lst.snapshot(); return lost == 1 })
	if !cp.Stopped() {
		t.Fatal("CP still running after loss")
	}
	st := cp.Stats()
	if st.CyclesFailed != 1 || st.Retransmits < 3 {
		t.Fatalf("stats after crash = %+v", st)
	}
}

// TestFleetDeviceRestartSamePort is the crash → restart sequence of a
// device daemon (cmd/probed killed and started again on its port): the
// device's fleet closes silently, a new 1-shard fleet hosts the same
// device id on the same address, and the control point, restarted after
// its loss verdict, must hear from it again. A control point that stops
// reading after the kernel reports the dead port never would.
func TestFleetDeviceRestartSamePort(t *testing.T) {
	devFleet := startedFleet(t, Config{Shards: 1})
	dev := addDCPPDevice(t, devFleet, 1, fastDCPP())
	addr := dev.Addr().String()
	lst := &countingListener{}
	cp := addDCPPCP(t, startedFleet(t, Config{Shards: 1}), 60, 1, addr, lst)
	waitFor(t, 3*time.Second, "first cycles", func() bool { return cp.Stats().CyclesOK >= 2 })
	if err := devFleet.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "loss detection", cp.Stopped)
	if _, lost, _ := lst.snapshot(); lost != 1 {
		t.Fatalf("lost verdicts after the crash = %d, want 1", lost)
	}
	addDCPPDevice(t, startedFleet(t, Config{Shards: 1, ListenAddr: addr}), 1, fastDCPP())
	before := cp.Stats().CyclesOK
	if err := cp.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "cycles against the restarted device", func() bool {
		return cp.Stats().CyclesOK >= before+2
	})
}

// TestFleetGarbageDatagramsIgnored: datagrams that are not frames,
// thrown at a hosted device's socket, are counted and never answered.
func TestFleetGarbageDatagramsIgnored(t *testing.T) {
	f := startedFleet(t, Config{Shards: 1})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(dev.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		if _, err := conn.Write([]byte("definitely not a frame")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "decode errors", func() bool { return f.Snapshot().Total.DecodeErrors >= 10 })
	if c := f.Snapshot().Total; c.PacketsOut != 0 {
		t.Fatalf("device answered garbage: %+v", c)
	}
}

func TestFleetAnnounceRouting(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	var mu sync.Mutex
	got := map[ident.NodeID]int{}
	for i := 0; i < 4; i++ {
		id := ident.NodeID(200 + i)
		policy, err := dcpp.NewPolicy(dcpp.PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddControlPoint(CPConfig{
			ID: id, Device: 1, DeviceAddr: dev.Addr().String(),
			Policy: policy, Retransmit: fastRetransmit(),
			OnAnnounce: func(m core.AnnounceMsg) {
				mu.Lock()
				got[id]++
				mu.Unlock()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, "device to learn all peers", func() bool { return dev.Peers() == 4 })
	dev.Announce(30 * time.Second)
	waitFor(t, 2*time.Second, "announce fan-out", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 4
	})
}

func TestFleetRemoveAndDuplicate(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	cp := addDCPPCP(t, f, 70, 1, dev.Addr().String(), nil)
	if _, err := f.AddControlPoint(CPConfig{
		ID: 70, Device: 1, DeviceAddr: dev.Addr().String(), Policy: mustNaive(t),
	}); err == nil {
		t.Fatal("duplicate CP id accepted")
	}
	waitFor(t, 3*time.Second, "a cycle", func() bool { return cp.Stats().CyclesOK >= 1 })
	cp.Remove()
	cp.Remove() // idempotent
	if err := cp.Restart(); err == nil {
		t.Fatal("Restart after Remove accepted")
	}
	snap := f.Snapshot()
	if snap.Total.ControlPoints != 0 || snap.Total.LiveControlPoints != 0 {
		t.Fatalf("gauges after remove = %+v", snap.Total)
	}
	if snap.Total.PendingProbes != 0 {
		t.Fatalf("pending demux entries after remove = %d", snap.Total.PendingProbes)
	}
	// The id is free again.
	cp2 := addDCPPCP(t, f, 70, 1, dev.Addr().String(), nil)
	waitFor(t, 3*time.Second, "re-added CP cycle", func() bool { return cp2.Stats().CyclesOK >= 1 })
}

func TestFleetDeviceCap(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	addDCPPDevice(t, f, 1, fastDCPP())
	addDCPPDevice(t, f, 2, fastDCPP())
	_, err := f.AddDevice(3, func(env core.Env) (core.Device, error) {
		return dcpp.NewDevice(3, env, fastDCPP())
	})
	if err == nil {
		t.Fatal("third device on a 2-shard fleet accepted")
	}
}

func TestFleetSAPPAndNaive(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	sappDev, err := f.AddDevice(1, func(env core.Env) (core.Device, error) {
		return sapp.NewDevice(1, env, sapp.DefaultDeviceConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	naiveDev, err := f.AddDevice(2, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(2, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	cpCfg := sapp.DefaultCPConfig()
	cpCfg.MinDelay = 20 * time.Millisecond
	cpCfg.MaxDelay = 200 * time.Millisecond
	sappPolicy, err := sapp.NewPolicy(cpCfg)
	if err != nil {
		t.Fatal(err)
	}
	sappCP, err := f.AddControlPoint(CPConfig{
		ID: 10, Device: 1, DeviceAddr: sappDev.Addr().String(),
		Policy: sappPolicy, Retransmit: fastRetransmit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	naivePolicy, err := naive.NewPolicy(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	naiveCP, err := f.AddControlPoint(CPConfig{
		ID: 11, Device: 2, DeviceAddr: naiveDev.Addr().String(),
		Policy: naivePolicy, Retransmit: fastRetransmit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "SAPP and naive cycles", func() bool {
		return sappCP.Stats().CyclesOK >= 3 && naiveCP.Stats().CyclesOK >= 3
	})
}

// loopbackWindow is what joinLoopback measured: the CP fleet's
// counters on either side of the steady-state window.
type loopbackWindow struct {
	// goroutines is the process count right after every CP reached
	// steady state.
	goroutines int
	// budget is the aggregate probe budget in probes/s: devices × L_nom
	// under DCPP, CPs × probeHz in high-rate mode.
	budget        float64
	before, after Snapshot
	// devDecodeErrors is the device fleet's decode error count.
	devDecodeErrors uint64
}

// delta is one counter's growth over the window.
func (r loopbackWindow) delta(field func(Counters) uint64) float64 {
	return float64(field(r.after.Total) - field(r.before.Total))
}

// probesPerSec is the CP fleet's aggregate probe rate over the window.
func (r loopbackWindow) probesPerSec() float64 {
	return r.delta(func(c Counters) uint64 { return c.ProbesOut }) / (r.after.At - r.before.At).Seconds()
}

// fill returns packets per transport call over the window, in and out.
func (r loopbackWindow) fill() (in, out float64) {
	in = r.delta(func(c Counters) uint64 { return c.PacketsIn }) / r.delta(func(c Counters) uint64 { return c.SyscallsIn })
	out = r.delta(func(c Counters) uint64 { return c.PacketsOut }) / r.delta(func(c Counters) uint64 { return c.SyscallsOut })
	return in, out
}

// joinLoopback boots a device fleet and a CP fleet on kernel UDP
// loopback and joins cps control points through a JoinPacer, spread
// round-robin over devices. It waits until every CP has completed a
// probe cycle — restarting any that lost a whole cycle to the join
// storm, as a production monitor would — and snapshots the CP fleet
// across window. probeHz 0 runs paper-default DCPP; otherwise every CP
// runs the naive protocol at probeHz, with timeouts long enough that
// deliberate overload is not read as death.
func joinLoopback(t *testing.T, cps, devices int, window time.Duration, probeHz float64, cpCfg Config) loopbackWindow {
	t.Helper()
	devCfg := dcpp.DefaultDeviceConfig()
	newDevice := func(id ident.NodeID) DeviceBuilder {
		return func(env core.Env) (core.Device, error) {
			if probeHz > 0 {
				return naive.NewDevice(id, env)
			}
			return dcpp.NewDevice(id, env, devCfg)
		}
	}
	newPolicy := func() (core.DelayPolicy, error) {
		if probeHz > 0 {
			return naive.NewPolicy(time.Duration(float64(time.Second) / probeHz))
		}
		return dcpp.NewPolicy(dcpp.PolicyConfig{})
	}
	var retransmit core.RetransmitConfig
	res := loopbackWindow{budget: float64(devices) * devCfg.NominalLoad()}
	if probeHz > 0 {
		retransmit = core.RetransmitConfig{FirstTimeout: 2 * time.Second, RetryTimeout: time.Second, MaxRetransmits: 3}
		res.budget = float64(cps) * probeHz
	}

	devFleet := startedFleet(t, Config{Shards: devices, ForceSingleDatagram: cpCfg.ForceSingleDatagram})
	var ids ident.Allocator
	devs := make([]*Device, devices)
	for i := range devs {
		id := ids.Next()
		dev, err := devFleet.AddDevice(id, newDevice(id))
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	cpFleet := startedFleet(t, cpCfg)
	pacer := NewJoinPacer(cps, 0)
	all := make([]*ControlPoint, cps)
	for i := range all {
		policy, err := newPolicy()
		if err != nil {
			t.Fatal(err)
		}
		dev := devs[i%devices]
		all[i], err = cpFleet.AddControlPoint(CPConfig{
			ID: ids.Next(), Device: dev.ID(), DeviceAddrPort: dev.Addr(),
			Policy: policy, Retransmit: retransmit,
		})
		if err != nil {
			t.Fatalf("add cp %d: %v", i, err)
		}
		pacer.Tick()
	}

	deadline := time.Now().Add(30*time.Second + 2*DefaultJoinRamp(cps))
	for steady := 0; steady < cps; {
		cp := all[steady]
		if cp.Stats().CyclesOK >= 1 {
			steady++
			continue
		}
		if cp.Stopped() {
			if err := cp.Restart(); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cp %v never completed a cycle (%d of %d steady)", cp.ID(), steady, cps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.goroutines = runtime.NumGoroutine()
	res.before = cpFleet.Snapshot()
	time.Sleep(window)
	res.after = cpFleet.Snapshot()
	res.devDecodeErrors = devFleet.Snapshot().Total.DecodeErrors
	return res
}

// TestFleetScaleLoopback1k is the scale integration test: 1000 control
// points against loopback devices on a handful of event-loop
// goroutines. Every CP must reach steady state, and the aggregate
// steady probe rate must stay within DCPP's L_nom budget — the paper's
// overload-protection claim, observed on real sockets at fleet scale.
func TestFleetScaleLoopback1k(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const cpCount, shards = 1000, 4
	baseline := runtime.NumGoroutine()
	// Paper-default DCPP: L_nom = 10/s per device, f_max = 2/s.
	res := joinLoopback(t, cpCount, 4, 2*time.Second, 0, Config{Shards: shards})
	total := res.after.Total
	rate := res.probesPerSec()
	t.Logf("%d CPs steady; %.1f probes/s of %.1f budget; wheel depth %d", total.LiveControlPoints, rate, res.budget, total.WheelDepth)
	if total.LiveControlPoints != cpCount {
		t.Errorf("steady CPs = %d, want %d", total.LiveControlPoints, cpCount)
	}
	// No per-node goroutines: 4 CP shards + 4 device shards + the
	// harness and runtime slack, nowhere near 1000.
	if got := res.goroutines - baseline; got > 4+4+8 {
		t.Errorf("goroutines grew by %d for %d CPs — per-node goroutines leaked?", got, cpCount)
	}
	// Aggregate probes/s within the DCPP budget (L_nom per device),
	// with margin for retransmissions and window-edge jitter.
	if rate > res.budget*1.25+5 {
		t.Errorf("steady probe rate %.1f/s exceeds DCPP budget %.1f/s", rate, res.budget)
	}
	if rate <= 0 {
		t.Error("no steady probe traffic measured")
	}
	// Every sleeping CP holds exactly one wheel timer (plus one
	// maintenance sweeper per shard).
	if total.WheelDepth < cpCount || total.WheelDepth > cpCount+shards {
		t.Errorf("wheel depth = %d, want %d (one alarm per CP)", total.WheelDepth, cpCount)
	}
	if total.DemuxCollisions != 0 {
		t.Errorf("demux collisions = %d over %d staggered cycle spaces", total.DemuxCollisions, cpCount)
	}
	if errs := total.DecodeErrors + res.devDecodeErrors; errs != 0 {
		t.Errorf("decode errors = %d", errs)
	}
}

// TestLoopbackTransportPaths runs 1000 high-rate naive CPs over kernel
// UDP on every transport path the runtime ships — batched I/O, the
// single-datagram fallback, and the SO_REUSEPORT layout at one and two
// shards. Every run must keep all its CPs steady, decode every frame
// and account its syscalls; the single-datagram path must never carry
// more than one packet a call. Throughput is not asserted here: it is
// machine-dependent, and the benchmark of record (bench/, udp-busy)
// measures it.
func TestLoopbackTransportPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	for _, tc := range []struct {
		name    string
		probeHz float64
		cfg     Config
	}{
		{"batch", 4, Config{Shards: 1}},
		{"single", 4, Config{Shards: 1, ForceSingleDatagram: true}},
		{"reuseport-1", 10, Config{Shards: 1, ReusePort: true}},
		{"reuseport-2", 10, Config{Shards: 2, ReusePort: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const cpCount = 1000
			res := joinLoopback(t, cpCount, 2, time.Second, tc.probeHz, tc.cfg)
			total := res.after.Total
			rate := res.probesPerSec()
			fillIn, fillOut := res.fill()
			handoffs := res.delta(func(c Counters) uint64 { return c.HandoffsIn })
			t.Logf("%d CPs steady; %.0f probes/s of %.0f offered; fill %.1f in / %.1f out; handoffs %.0f",
				total.LiveControlPoints, rate, res.budget, fillIn, fillOut, handoffs)
			if total.LiveControlPoints != cpCount {
				t.Errorf("steady CPs = %d, want %d", total.LiveControlPoints, cpCount)
			}
			if errs := total.DecodeErrors + res.devDecodeErrors; errs != 0 {
				t.Errorf("decode errors = %d", errs)
			}
			if rate <= 0 || total.SyscallsIn == 0 || !(fillIn > 0) {
				t.Errorf("no traffic or syscall accounting: %.1f probes/s, %d syscalls in, fill %.2f in", rate, total.SyscallsIn, fillIn)
			}
			if tc.cfg.ForceSingleDatagram && (fillIn > 1 || fillOut > 1) {
				t.Errorf("single-datagram path batched: fill %.2f in / %.2f out", fillIn, fillOut)
			}
		})
	}
}

// TestFleetSnapshotAggregation pins Total == Σ Shards for cumulative
// and gauge fields under live traffic.
func TestFleetSnapshotAggregation(t *testing.T) {
	f := startedFleet(t, Config{Shards: 4})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	for i := 0; i < 32; i++ {
		addDCPPCP(t, f, ident.NodeID(500+i), 1, dev.Addr().String(), nil)
	}
	time.Sleep(300 * time.Millisecond)
	snap := f.Snapshot()
	var sum Counters
	for _, c := range snap.Shards {
		sum.Add(&c)
	}
	if sum != snap.Total {
		t.Fatalf("Total %+v != per-shard sum %+v", snap.Total, sum)
	}
	if snap.Total.ControlPoints != 32 {
		t.Fatalf("ControlPoints = %d", snap.Total.ControlPoints)
	}
	if snap.Total.PacketsIn == 0 || snap.Total.PacketsOut == 0 {
		t.Fatalf("no traffic in snapshot: %+v", snap.Total)
	}
}
