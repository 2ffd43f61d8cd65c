package fleet

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/ident"
)

// ScaleOptions parameterises the loopback scale harness: one fleet
// hosting CPs (the system under test, ≤ GOMAXPROCS shard goroutines,
// no per-node goroutines or timers) probing DCPP devices hosted by a
// second, devices-only fleet standing in for the monitored network.
type ScaleOptions struct {
	// CPs is the number of hosted control points. Default 10000.
	CPs int
	// Shards is the CP fleet's shard count. Default GOMAXPROCS.
	Shards int
	// Devices is the number of loopback DCPP devices. Default 8.
	Devices int
	// Window is the steady-state measurement window. Default 5 s.
	Window time.Duration
	// JoinTimeout bounds the wait for every CP's first completed cycle.
	// Default 30 s.
	JoinTimeout time.Duration
	// JoinRampUp spreads the Adds over this long, so the first probe of
	// every CP does not land in one synchronized burst that overflows
	// the (rmem_max-clamped) socket buffers and then re-synchronizes as
	// a retransmit storm. Default 200 µs per CP (2 s at 10k). Negative
	// disables the ramp.
	JoinRampUp time.Duration
	// DeviceConfig parameterises the DCPP devices. Zero = paper
	// defaults (L_nom = 10 probes/s per device).
	DeviceConfig dcpp.DeviceConfig
	// Retransmit parameterises the CP probe cycles. Zero = paper
	// defaults (or, in high-rate mode, generous timeouts that survive
	// deliberate overload — see ProbeHz).
	Retransmit core.RetransmitConfig
	// ProbeHz switches the harness to high-rate mode: every CP runs the
	// naive protocol at this fixed per-CP probe budget (probes/s)
	// against naive devices, instead of DCPP under its aggregate L_nom
	// ceiling. DCPP proves the protocol stays frugal no matter the
	// population; high-rate mode deliberately removes that frugality so
	// the transport, not the protocol, is the bottleneck — the
	// configuration the batched syscall path is measured in. Zero keeps
	// DCPP.
	ProbeHz float64
	// ForceSingleDatagram runs both fleets on the one-packet-per-
	// syscall fallback path: the baseline the batching win is measured
	// against.
	ForceSingleDatagram bool
	// Batch is the per-shard transport batch (Config.Batch). Zero =
	// the fleet default.
	Batch int
	// Transport, when non-nil, carries both fleets instead of kernel
	// UDP loopback: every shard of the device fleet and then the CP
	// fleet calls Listen on it in turn. An internal/memnet network here
	// measures the event loop's own per-packet overhead with the
	// kernel's per-datagram loopback cost out of the picture.
	Transport Transport
	// ReusePort runs the CP fleet on the SO_REUSEPORT layout
	// (Config.ReusePort): shard sockets share one port, the kernel
	// demultiplexes by flow hash, and strays ride the handoff path. On
	// platforms without the option the fleet falls back to distinct
	// ports with routing still on, so the measured path is identical
	// minus the strays.
	ReusePort bool
}

func (o *ScaleOptions) applyDefaults() {
	if o.CPs <= 0 {
		o.CPs = 10_000
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Devices <= 0 {
		o.Devices = 8
	}
	if o.Window <= 0 {
		o.Window = 5 * time.Second
	}
	if o.JoinTimeout <= 0 {
		// The ramp (the caller's, if they stretched it) takes this long
		// by itself; leave the same again (at least 30 s) for every CP
		// to finish its first cycle.
		ramp := DefaultJoinRamp(o.CPs)
		if o.JoinRampUp > ramp {
			ramp = o.JoinRampUp
		}
		o.JoinTimeout = 30*time.Second + 2*ramp
	}
	if o.DeviceConfig == (dcpp.DeviceConfig{}) {
		o.DeviceConfig = dcpp.DefaultDeviceConfig()
	}
	if o.Retransmit == (core.RetransmitConfig{}) {
		switch {
		case o.ProbeHz > 0:
			// High-rate mode deliberately overloads the transport;
			// generous timeouts keep queueing delay from reading as
			// device death.
			o.Retransmit = core.RetransmitConfig{
				FirstTimeout:   2 * time.Second,
				RetryTimeout:   time.Second,
				MaxRetransmits: 3,
			}
		case o.CPs >= 50_000:
			// A ≥50k join storm on one box queues far past the paper's
			// 85 ms cycle budget; a 500/250 ms cycle keeps transient
			// queueing from being misread as absence. Steady-state
			// probe load is DCPP's and does not depend on these
			// timeouts.
			o.Retransmit = core.RetransmitConfig{
				FirstTimeout:   500 * time.Millisecond,
				RetryTimeout:   250 * time.Millisecond,
				MaxRetransmits: 3,
			}
		}
	}
}

// DefaultJoinRamp is the default join spread: 200 µs per CP (2 s at
// 10k), enough to keep first-probe bursts from overflowing
// rmem_max-clamped socket buffers.
func DefaultJoinRamp(cps int) time.Duration {
	return time.Duration(cps) * 200 * time.Microsecond
}

// JoinPacer spreads a mass join over a ramp, sleeping briefly every few
// adds so the joining CPs' first probes do not land in one synchronized
// burst (which overflows socket buffers and then re-synchronizes as a
// retransmit storm). A zero ramp means DefaultJoinRamp; negative
// disables pacing.
type JoinPacer struct {
	pause time.Duration
	n     int
}

// joinBatch is how many adds go between pacing sleeps.
const joinBatch = 64

// NewJoinPacer builds a pacer for joining cps control points over ramp.
func NewJoinPacer(cps int, ramp time.Duration) *JoinPacer {
	if ramp == 0 {
		ramp = DefaultJoinRamp(cps)
	}
	p := &JoinPacer{}
	if ramp > 0 && cps > 0 {
		p.pause = ramp * joinBatch / time.Duration(cps)
	}
	return p
}

// Tick is called after each add; it sleeps at batch boundaries.
func (p *JoinPacer) Tick() {
	p.n++
	if p.pause > 0 && p.n%joinBatch == 0 {
		time.Sleep(p.pause)
	}
}

// ScaleResult is what the harness measured.
type ScaleResult struct {
	CPs     int `json:"control_points"`
	Shards  int `json:"cp_shards"`
	Devices int `json:"devices"`
	// Protocol names the CP protocol: "dcpp" (budget mode) or
	// "naive@<Hz>" (high-rate mode).
	Protocol string `json:"protocol"`
	// ProbeHz is the per-CP probe budget of high-rate mode (0 = DCPP).
	ProbeHz float64 `json:"probe_hz,omitempty"`
	// SingleDatagram marks a run on the one-packet-per-syscall fallback.
	SingleDatagram bool `json:"single_datagram,omitempty"`
	// ReusePort marks a run configured for the shared-port layout;
	// ReusePortActive reports whether the kernel option was actually in
	// use (false on non-Linux fallback or a custom Transport).
	ReusePort       bool `json:"reuseport,omitempty"`
	ReusePortActive bool `json:"reuseport_active,omitempty"`
	// GoMaxProcs is runtime.GOMAXPROCS during the run.
	GoMaxProcs int `json:"gomaxprocs"`
	// Goroutines is the process count right after steady state: the CP
	// fleet's shard loops, the device fleet's, and the harness itself.
	Goroutines int `json:"goroutines"`
	// JoinSeconds is how long it took from the first Add until every CP
	// had completed at least one probe cycle.
	JoinSeconds float64 `json:"join_seconds"`
	// JoinRestarts counts CPs that lost the device during the join storm
	// (dropped probes exhausting a retransmit cycle) and were restarted
	// by the harness.
	JoinRestarts int `json:"join_restarts"`
	// SteadyCPs is the number of CPs alive after the window (all, unless
	// something went wrong).
	SteadyCPs int `json:"steady_cps"`
	// SteadyProbesPerSec is the aggregate CP probe rate over the window.
	SteadyProbesPerSec float64 `json:"steady_probes_per_sec"`
	// BudgetProbesPerSec is the protocol's aggregate ceiling:
	// Devices × L_nom. DCPP's whole point is that the steady rate stays
	// under this no matter how many CPs monitor each device.
	BudgetProbesPerSec float64 `json:"budget_probes_per_sec"`
	// SteadyPacketsPerSec is the CP fleet's aggregate transport rate
	// (packets in + out) over the window — the number the batched I/O
	// path is judged on.
	SteadyPacketsPerSec float64 `json:"steady_packets_per_sec"`
	WindowSeconds       float64 `json:"window_seconds"`
	WheelDepth          int     `json:"wheel_depth"`
	PendingProbes       int     `json:"pending_probes"`
	DemuxCollisions     uint64  `json:"demux_collisions"`
	DemuxDrops          uint64  `json:"demux_drops"`
	DecodeErrors        uint64  `json:"decode_errors"`
	SendErrors          uint64  `json:"send_errors"`
	PacketsIn           uint64  `json:"packets_in"`
	PacketsOut          uint64  `json:"packets_out"`
	// SyscallsIn/Out count the CP fleet's transport calls over the
	// whole run; BatchFillMeanIn/Out are packets per call over the
	// measurement window (1.0 on the single-datagram path; > 1 when
	// batching is doing work).
	SyscallsIn       uint64  `json:"syscalls_in"`
	SyscallsOut      uint64  `json:"syscalls_out"`
	BatchFillMeanIn  float64 `json:"batch_fill_mean_in"`
	BatchFillMeanOut float64 `json:"batch_fill_mean_out"`
	// SyscallsPerPacket is transport calls per packet moved over the
	// window, both directions combined (1/BatchFill when only one
	// direction flowed; the honest aggregate otherwise).
	SyscallsPerPacket float64 `json:"syscalls_per_packet"`
	// HandoffsIn/Out count cross-shard frame handoffs over the window
	// (nonzero only with ReusePort routing and actual strays).
	HandoffsIn  uint64 `json:"handoffs_in,omitempty"`
	HandoffsOut uint64 `json:"handoffs_out,omitempty"`
	// PerShardPackets is each CP shard's packets (in+out) over the
	// window, and ShardImbalance is max/mean over those — 1.0 is a
	// perfectly even spread, the number the kernel's flow-hash demux is
	// judged on.
	PerShardPackets []uint64 `json:"per_shard_packets,omitempty"`
	ShardImbalance  float64  `json:"shard_imbalance,omitempty"`
}

// LoopbackScale boots the two fleets, joins every CP, waits for all of
// them to reach steady state (≥ 1 completed cycle), measures the
// aggregate probe and packet rates over the window, and tears
// everything down.
func LoopbackScale(opts ScaleOptions) (ScaleResult, error) {
	opts.applyDefaults()
	res := ScaleResult{
		CPs:            opts.CPs,
		Shards:         opts.Shards,
		Devices:        opts.Devices,
		Protocol:       "dcpp",
		ProbeHz:        opts.ProbeHz,
		SingleDatagram: opts.ForceSingleDatagram,
		ReusePort:      opts.ReusePort,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		WindowSeconds:  opts.Window.Seconds(),
	}
	highRate := opts.ProbeHz > 0
	if highRate {
		res.Protocol = fmt.Sprintf("naive@%g", opts.ProbeHz)
		// In high-rate mode the offered load is the budget: every CP
		// probes at its fixed rate regardless of population.
		res.BudgetProbesPerSec = float64(opts.CPs) * opts.ProbeHz
	} else {
		res.BudgetProbesPerSec = float64(opts.Devices) * opts.DeviceConfig.NominalLoad()
	}

	newPolicy := func() (core.DelayPolicy, error) {
		if highRate {
			return naive.NewPolicy(time.Duration(float64(time.Second) / opts.ProbeHz))
		}
		return dcpp.NewPolicy(dcpp.PolicyConfig{})
	}
	newDevice := func(id ident.NodeID) DeviceBuilder {
		return func(env core.Env) (core.Device, error) {
			if highRate {
				return naive.NewDevice(id, env)
			}
			return dcpp.NewDevice(id, env, opts.DeviceConfig)
		}
	}

	devFleet, err := New(Config{Shards: opts.Devices, Batch: opts.Batch, ForceSingleDatagram: opts.ForceSingleDatagram, Transport: opts.Transport})
	if err != nil {
		return res, fmt.Errorf("device fleet: %w", err)
	}
	defer devFleet.Close()
	if err := devFleet.Start(); err != nil {
		return res, err
	}
	devAddrs := make([]struct {
		id   ident.NodeID
		addr netip.AddrPort
	}, opts.Devices)
	var ids ident.Allocator
	for i := range devAddrs {
		id := ids.Next()
		dev, err := devFleet.AddDevice(id, newDevice(id))
		if err != nil {
			return res, err
		}
		devAddrs[i].id = id
		devAddrs[i].addr = dev.Addr()
	}

	cpFleet, err := New(Config{Shards: opts.Shards, Batch: opts.Batch, ForceSingleDatagram: opts.ForceSingleDatagram, Transport: opts.Transport, ReusePort: opts.ReusePort})
	if err != nil {
		return res, fmt.Errorf("cp fleet: %w", err)
	}
	res.ReusePortActive = cpFleet.ReusePortActive()
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		return res, err
	}

	// The harness times the join from outside, across two fleets that
	// each have their own clock: it reads the wall clock, and is on
	// TestClockSeamIsSingle's allow-list for it.
	joinStart := time.Now()
	pacer := NewJoinPacer(opts.CPs, opts.JoinRampUp)
	cps := make([]*ControlPoint, opts.CPs)
	for i := range cps {
		policy, err := newPolicy()
		if err != nil {
			return res, err
		}
		dev := devAddrs[i%len(devAddrs)]
		cp, err := cpFleet.AddControlPoint(CPConfig{
			ID:             ids.Next(),
			Device:         dev.id,
			DeviceAddrPort: dev.addr,
			Policy:         policy,
			Retransmit:     opts.Retransmit,
		})
		if err != nil {
			return res, fmt.Errorf("add cp %d: %w", i, err)
		}
		cps[i] = cp
		pacer.Tick()
	}

	// Steady state: every CP has completed at least one probe cycle (the
	// device answered and handed it a wait). A CP that lost a whole
	// retransmit cycle to join-storm drops has stopped; restart it, as a
	// production monitor would.
	deadline := time.Now().Add(opts.JoinTimeout)
	next := 0
	for next < len(cps) {
		cp := cps[next]
		if cp.Stats().CyclesOK >= 1 {
			next++
			continue
		}
		if cp.Stopped() {
			if err := cp.Restart(); err != nil {
				return res, err
			}
			res.JoinRestarts++
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("cp %v never completed a cycle within %v (%d of %d steady)",
				cp.ID(), opts.JoinTimeout, next, len(cps))
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.JoinSeconds = time.Since(joinStart).Seconds()
	res.Goroutines = runtime.NumGoroutine()

	before := cpFleet.Snapshot()
	time.Sleep(opts.Window)
	after := cpFleet.Snapshot()

	elapsed := (after.At - before.At).Seconds()
	if elapsed > 0 {
		res.SteadyProbesPerSec = float64(after.Total.ProbesOut-before.Total.ProbesOut) / elapsed
		res.SteadyPacketsPerSec = float64(after.Total.PacketsIn-before.Total.PacketsIn+
			after.Total.PacketsOut-before.Total.PacketsOut) / elapsed
		res.WindowSeconds = elapsed
	}
	if calls := after.Total.SyscallsIn - before.Total.SyscallsIn; calls > 0 {
		res.BatchFillMeanIn = float64(after.Total.PacketsIn-before.Total.PacketsIn) / float64(calls)
	}
	if calls := after.Total.SyscallsOut - before.Total.SyscallsOut; calls > 0 {
		res.BatchFillMeanOut = float64(after.Total.PacketsOut-before.Total.PacketsOut) / float64(calls)
	}
	if pkts := after.Total.PacketsIn - before.Total.PacketsIn + after.Total.PacketsOut - before.Total.PacketsOut; pkts > 0 {
		calls := after.Total.SyscallsIn - before.Total.SyscallsIn + after.Total.SyscallsOut - before.Total.SyscallsOut
		res.SyscallsPerPacket = float64(calls) / float64(pkts)
	}
	res.HandoffsIn = after.Total.HandoffsIn - before.Total.HandoffsIn
	res.HandoffsOut = after.Total.HandoffsOut - before.Total.HandoffsOut
	res.PerShardPackets = make([]uint64, len(after.Shards))
	var sum, peak uint64
	for i := range after.Shards {
		p := after.Shards[i].PacketsIn - before.Shards[i].PacketsIn +
			after.Shards[i].PacketsOut - before.Shards[i].PacketsOut
		res.PerShardPackets[i] = p
		sum += p
		if p > peak {
			peak = p
		}
	}
	if sum > 0 {
		res.ShardImbalance = float64(peak) * float64(len(after.Shards)) / float64(sum)
	}
	res.SteadyCPs = after.Total.LiveControlPoints
	res.WheelDepth = after.Total.WheelDepth
	res.PendingProbes = after.Total.PendingProbes
	res.DemuxCollisions = after.Total.DemuxCollisions
	res.DemuxDrops = after.Total.DemuxDrops
	devSnap := devFleet.Snapshot()
	res.DecodeErrors = after.Total.DecodeErrors + devSnap.Total.DecodeErrors
	res.SendErrors = after.Total.SendErrors + devSnap.Total.SendErrors
	res.PacketsIn = after.Total.PacketsIn
	res.PacketsOut = after.Total.PacketsOut
	res.SyscallsIn = after.Total.SyscallsIn
	res.SyscallsOut = after.Total.SyscallsOut
	return res, nil
}
