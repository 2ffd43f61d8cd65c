package main

// Per-layer micro-timings: each layer's exported functions called in a
// plain loop from here, on the inputs the workloads carry. They are the
// rows of the per-packet ledger (README.md, "Ledger") and the floors
// the simulator and memnet rows are read against.

import (
	"fmt"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/core/sapp"
	"presence/internal/des"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/metrics"
	"presence/internal/rng"
	"presence/internal/simnet"
	"presence/internal/trace"
	"presence/internal/wire"
)

const (
	microReps  = 9
	microCalls = 200_000 // per repetition; 9 x 200k > 1 M calls a row
)

// stubEnv is a core.Env that keeps time still, recycles what is sent
// and remembers the last probe, so an engine can be driven in a loop.
type stubEnv struct {
	now       time.Duration
	lastCycle uint32
}

func (e *stubEnv) Now() time.Duration { return e.now }
func (e *stubEnv) Send(_ ident.NodeID, m core.Message) {
	if p, ok := m.(*core.ProbeMsg); ok {
		e.lastCycle = p.Cycle
	}
	core.Recycle(m)
}
func (e *stubEnv) SetAlarm(time.Duration) {}
func (e *stubEnv) StopAlarm()             {}

const (
	microCP     ident.NodeID = 1000
	microDevice ident.NodeID = 1
)

// wireLedger times the codec on the two frames hot-* carries: the probe
// and the naive (empty) reply.
func wireLedger(r *result, p params) error {
	frames := [2]wire.Frame{
		{Kind: wire.KindProbe, From: microCP, Cycle: 77},
		{Kind: wire.KindReplyEmpty, From: microDevice, Cycle: 77},
	}
	key, err := wire.DeriveKey([]byte("bench-ledger-master-secret"), wire.PairInfo(microCP, microDevice))
	if err != nil {
		return err
	}
	var plain, signed [2][]byte
	for i := range frames {
		if plain[i], err = wire.AppendEncodeFrame(nil, &frames[i]); err != nil {
			return err
		}
		f := frames[i]
		if signed[i], err = wire.AppendEncodeFrameAuth(nil, &f, key); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, wire.MaxFrameSize)
	var f wire.Frame
	bad := 0
	decode := func(n int) {
		for i := 0; i < n; i++ {
			if wire.DecodeFrame(plain[i&1], &f) != nil {
				bad++
			}
		}
	}
	encode := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wire.AppendEncodeFrame(buf[:0], &frames[i&1]); err != nil {
				bad++
			}
		}
	}
	sign := func(n int) {
		for i := 0; i < n; i++ {
			g := frames[i&1]
			if _, err := wire.AppendEncodeFrameAuth(buf[:0], &g, key); err != nil {
				bad++
			}
		}
	}
	var tagged [2]wire.Frame
	for i := range tagged {
		if err := wire.DecodeFrame(signed[i], &tagged[i]); err != nil {
			return err
		}
	}
	verify := func(n int) {
		for i := 0; i < n; i++ {
			if !key.VerifyFrame(&tagged[i&1]) {
				bad++
			}
		}
	}
	r.set("wire.decode_ns", timeCalls(p.reps(microReps), p.calls(microCalls), decode)...)
	r.set("wire.encode_ns", timeCalls(p.reps(microReps), p.calls(microCalls), encode)...)
	r.set("wire.sign_ns", timeCalls(p.reps(microReps), p.calls(microCalls/4), sign)...)
	r.set("wire.verify_ns", timeCalls(p.reps(microReps), p.calls(microCalls/4), verify)...)
	const n = 1000
	allocs := mallocs(func() { decode(n); encode(n); sign(n); verify(n) })
	r.set("wire.allocs_per_frame", float64(allocs)/(4*n))
	r.Attempted += 4 * n
	if !raceEnabled {
		r.fail(int(allocs), "wire: %d allocations over %d codec calls, want 0", allocs, 4*n)
	}
	r.fail(bad, "wire: %d codec calls failed on well-formed frames", bad)
	return nil
}

// engineLedger times the engines hot-* runs: one prober cycle (alarm,
// probe out, reply in, next delay) and one naive device probe.
func engineLedger(r *result, p params) error {
	env := &stubEnv{}
	policy, err := naive.NewPolicy(time.Second)
	if err != nil {
		return err
	}
	prober, err := core.NewProber(core.ProberOptions{ID: microCP, Device: microDevice, Env: env, Policy: policy})
	if err != nil {
		return err
	}
	prober.Start()
	prober.OnReply(core.ReplyMsg{From: microDevice, Cycle: env.lastCycle, Payload: core.EmptyReply{}})
	r.set("core.prober_cycle_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			prober.OnAlarm()
			prober.OnReply(core.ReplyMsg{From: microDevice, Cycle: env.lastCycle, Payload: core.EmptyReply{}})
		}
	})...)
	if got := prober.Stats(); got.CyclesOK < uint64(p.reps(microReps)*p.calls(microCalls)) || got.StaleReplies != 0 {
		r.fail(1, "core: prober ledger loop completed %d cycles with %d stale replies", got.CyclesOK, got.StaleReplies)
	}
	dev, err := naive.NewDevice(microDevice, env)
	if err != nil {
		return err
	}
	r.set("core.device_probe_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			dev.OnProbe(microCP, core.ProbeMsg{From: microCP, Cycle: uint32(i)})
		}
	})...)
	return nil
}

// telemetryLedger times what one telemetry sample costs the hot path.
func telemetryLedger(r *result, p params) {
	var h metrics.Histogram
	r.set("metrics.observe_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i & 1023))
		}
	})...)
	ring := trace.NewRing(4096)
	r.set("trace.record_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(trace.Event{At: time.Duration(i), Kind: trace.EvProbeSent, Device: microDevice, CP: microCP, Cycle: uint32(i)})
		}
	})...)
}

// simEngineLedger times the engines only the simulator scenarios run:
// the DCPP device's slot scheduling and the DCPP and SAPP delay rules.
func simEngineLedger(r *result, p params) error {
	env := &stubEnv{}
	dev, err := dcpp.NewDevice(microDevice, env, dcpp.DefaultDeviceConfig())
	if err != nil {
		return err
	}
	r.set("core.dcpp_device_probe_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			// 64 control points in turn, each on a new cycle, 1 ms apart:
			// every probe claims a fresh slot, as in a churning scenario.
			env.now += time.Millisecond
			dev.OnProbe(microCP+ident.NodeID(i&63), core.ProbeMsg{Cycle: uint32(i)})
		}
	})...)
	dp, err := dcpp.NewPolicy(dcpp.PolicyConfig{})
	if err != nil {
		return err
	}
	sp, err := sapp.NewPolicy(sapp.DefaultCPConfig())
	if err != nil {
		return err
	}
	var sink time.Duration
	// The row is one call: half a DCPP and half a SAPP decision.
	r.set("core.policy_ns", scaled(timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			at := time.Duration(i) * 10 * time.Millisecond
			sink += dp.NextDelay(core.CycleResult{Payload: core.DCPPReply{Wait: 500 * time.Millisecond}, RepliedAt: at, Attempts: 1})
			sink += sp.NextDelay(core.CycleResult{Payload: core.SAPPReply{ProbeCount: uint64(i) * 3}, RepliedAt: at, Attempts: 1})
		}
	}), 0.5)...)
	if sink == 0 {
		return fmt.Errorf("policy ledger: delays summed to zero")
	}
	return nil
}

// simKernelLedger times the simulator's kernel: one self-rescheduling
// event, one alarm moved while pending, one message sent and delivered.
func simKernelLedger(r *result, p params) {
	sim := des.New()
	var tick func()
	tick = func() { sim.After(time.Millisecond, tick) }
	sim.After(time.Millisecond, tick)
	r.set("des.event_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			sim.Step()
		}
	})...)

	alarm := des.NewAlarm(des.New(), func() {})
	r.set("des.alarm_set_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			alarm.Set(des.Time(i+1) * des.Time(time.Microsecond))
		}
	})...)

	netSim := des.New()
	net := simnet.New(netSim, rng.New(1), simnet.Config{})
	delivered := 0
	net.Attach(microDevice, func(ident.NodeID, any) { delivered++ })
	r.set("simnet.send_deliver_ns", timeCalls(p.reps(microReps), p.calls(microCalls), func(n int) {
		for i := 0; i < n; i++ {
			net.Send(microCP, microDevice, core.AcquireProbe(microCP, uint32(i), 0))
			netSim.Step()
		}
	})...)
	r.fail(boolInt(delivered == 0), "simnet: ledger loop delivered nothing")
}

// memnetLedger times memnet's own cost per datagram on a perfect
// network: one WriteBatch of 64 to the peer's ReadBatch.
func memnetLedger(r *result, p params) error {
	net := memnet.New(memnet.Faults{})
	defer net.Close()
	a, err := net.Listen()
	if err != nil {
		return err
	}
	b, err := net.Listen()
	if err != nil {
		return err
	}
	const batch = 64
	frame, err := wire.AppendEncodeFrame(nil, &wire.Frame{Kind: wire.KindProbe, From: microCP, Cycle: 1})
	if err != nil {
		return err
	}
	out := make([]fleet.Datagram, batch)
	in := make([]fleet.Datagram, batch)
	bufs := make([][]byte, batch)
	for i := range out {
		out[i] = fleet.Datagram{Buf: frame, Addr: b.LocalAddrPort()}
		bufs[i] = make([]byte, wire.MaxFrameSize)
	}
	short := 0
	r.set("memnet.write_read_ns", scaled(timeCalls(p.reps(microReps), p.calls(2000), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.WriteBatch(out); err != nil {
				short++
			}
			for got := 0; got < batch; {
				for j := range in {
					in[j].Buf = bufs[j]
				}
				k, err := b.ReadBatch(in)
				if err != nil {
					short++
					return
				}
				got += k
			}
		}
	}), 1.0/batch)...)
	r.fail(short, "memnet: %d batch calls failed on a perfect network", short)
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
