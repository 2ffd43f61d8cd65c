package main

// The udp-* workloads: a CP fleet probing one naive device hosted by a
// second fleet, over the host's loopback interface. The CP fleet is
// both load generator and system under test (closed loop with think
// time: each control point waits one period after every reply). The
// benchmark sees the runtime only through the seams it exposes: a
// core.DelayPolicy and core.Listener per control point, a core.Device
// wrapper around the naive engine, and the fleets' exported calls.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/metrics"
	"presence/internal/obs"
	"presence/internal/rng"
)

type udpSpec struct {
	name     string
	cpShards int
	period   time.Duration
	// retransmit is the probe-cycle budget; the zero value is the
	// paper's 22 ms + 3 x 21 ms.
	retransmit core.RetransmitConfig
	crash      bool // end with a device crash and time every verdict
	churn      bool // admin pairs, a drain, a rebalance and scrapes beside the traffic
}

const (
	udpSlice      = time.Second
	udpSetupReps  = 3
	udpDeviceID   = ident.NodeID(1)
	adminInterval = 10 * time.Millisecond // 100 Remove+Add pairs a second
	scrapePeriod  = 50 * time.Millisecond // 20 Hz
	// lateSlack is how far past the retransmit budget a verdict may land
	// before it counts as failed: five timer firings of wheel and loop
	// lateness fit in it many times over.
	lateSlack = 50 * time.Millisecond
)

func runUDPSteady(p params) (*result, error) {
	return runUDP(udpSpec{name: "udp-steady", cpShards: 1, period: time.Second, crash: true}, p)
}

func runUDPBusy(p params) (*result, error) {
	// LoopbackScale's high-rate habit: a budget long enough that a
	// stolen core is not read as a death.
	rc := core.RetransmitConfig{FirstTimeout: 250 * time.Millisecond, RetryTimeout: 125 * time.Millisecond, MaxRetransmits: 3}
	return runUDP(udpSpec{name: "udp-busy", cpShards: 1, period: 200 * time.Millisecond, retransmit: rc}, p)
}

func runUDPChurn(p params) (*result, error) {
	return runUDP(udpSpec{name: "udp-churn", cpShards: 2, period: time.Second, churn: true}, p)
}

// udpRun is one assembled pair of fleets and everything the benchmark
// hangs on them.
type udpRun struct {
	spec   udpSpec
	p      params
	epoch  time.Time // the benchmark's own clock, for spans
	idBase ident.NodeID
	order  []int // join order, from the seed

	dev, cp *fleet.Fleet
	device  *fleet.Device
	skew    time.Duration // benchmark clock minus CP-fleet clock
	probes  []cpProbe
	handles []*fleet.ControlPoint

	joined        atomic.Int64
	recording     atomic.Bool // steady window open: keep samples
	crashed       atomic.Bool // device swallows probes from now on
	falseVerdicts atomic.Int64

	spans   *spanLog    // nil on an untraced run
	tracing atomic.Bool // spans recorded on alternate slices
	// lastDev[slot] is the device wrapper's last span for that control
	// point, wire cycle in the high half and nanoseconds in the low: how
	// the CP side learns the identifier and the child time of its cycle.
	lastDev []atomic.Uint64
}

func (u *udpRun) now() time.Duration { return time.Since(u.epoch) }
func (u *udpRun) spansOn() bool      { return u.spans != nil && u.tracing.Load() }
func (u *udpRun) id(slot int) ident.NodeID {
	return u.idBase + ident.NodeID(slot)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// benchDevice wraps the naive device engine: it is where the crash
// happens and where the device-side span is taken.
type benchDevice struct {
	inner core.Device
	run   *udpRun
}

func (d *benchDevice) Start()   { d.inner.Start() }
func (d *benchDevice) OnAlarm() { d.inner.OnAlarm() }
func (d *benchDevice) OnProbe(from ident.NodeID, m core.ProbeMsg) {
	u := d.run
	if u.crashed.Load() {
		return // the crash: the device is gone, probes vanish
	}
	if !u.spansOn() {
		d.inner.OnProbe(from, m)
		return
	}
	start := u.now()
	d.inner.OnProbe(from, m) // engine handler + env.Send (fleet encode + enqueue)
	dur := u.now() - start
	if slot := int(from - u.idBase); slot >= 0 && slot < len(u.lastDev) {
		u.lastDev[slot].Store(uint64(m.Cycle)<<32 | uint64(uint32(dur)))
	}
	u.spans.add(spanDeviceOnProbe, from, m.Cycle, start, dur, 0)
}

// cpProbe is one control point's policy and listener. The fleet calls
// it on the owning shard's event loop only.
type cpProbe struct {
	run  *udpRun
	slot int

	seen        bool
	havePrev    bool
	lastReplied time.Duration // CP-fleet clock
	lastDelay   time.Duration
	cycle       uint32 // wire cycle of the cycle being completed (traced runs)
	rtts, lates []float64

	lost   bool
	lostAt time.Duration
}

func (c *cpProbe) DeviceAlive(_ ident.NodeID, res core.CycleResult) {
	u := c.run
	tracing := u.spansOn()
	var start time.Duration
	if tracing {
		start = u.now()
	}
	if !c.seen {
		c.seen = true
		u.joined.Add(1)
	}
	rtt := res.RepliedAt - res.SentAt
	if u.recording.Load() && len(c.rtts) < cap(c.rtts) {
		c.rtts = append(c.rtts, micros(rtt))
		if c.havePrev && res.Attempts == 1 {
			// How late the wheel and the loop started this cycle.
			c.lates = append(c.lates, micros(res.SentAt-c.lastReplied-c.lastDelay))
		}
	}
	c.lastReplied, c.havePrev = res.RepliedAt, true
	if tracing {
		dev := u.lastDev[c.slot].Load()
		c.cycle = uint32(dev >> 32)
		u.spans.add(spanCycle, u.id(c.slot), c.cycle, res.SentAt+u.skew, rtt, time.Duration(uint32(dev)))
		u.spans.add(spanListener, u.id(c.slot), c.cycle, start, u.now()-start, 0)
	}
}

func (c *cpProbe) DeviceLost(_ ident.NodeID, at time.Duration) {
	if !c.run.crashed.Load() {
		c.run.falseVerdicts.Add(1)
		return
	}
	c.lost, c.lostAt = true, at
}

func (c *cpProbe) DeviceBye(ident.NodeID, time.Duration) { c.run.falseVerdicts.Add(1) }

// NextDelay is the fixed-period policy; it remembers the delay it gave
// so the next cycle's lateness and the verdict's start are known.
func (c *cpProbe) NextDelay(core.CycleResult) time.Duration {
	u := c.run
	if !u.spansOn() {
		c.lastDelay = u.spec.period
		return c.lastDelay
	}
	start := u.now()
	c.lastDelay = u.spec.period
	u.spans.add(spanPolicy, u.id(c.slot), c.cycle, start, u.now()-start, 0)
	return c.lastDelay
}

// open builds and starts both fleets, hosts the device and allocates
// every benchmark buffer, so that what join adds afterwards is the
// runtime's own.
func (u *udpRun) open() error {
	var err error
	if u.dev, err = fleet.New(fleet.Config{Shards: 1}); err != nil {
		return err
	}
	if err = u.dev.Start(); err != nil {
		return err
	}
	if u.cp, err = fleet.New(fleet.Config{Shards: u.spec.cpShards}); err != nil {
		return err
	}
	if err = u.cp.Start(); err != nil {
		return err
	}
	u.skew = u.now() - u.cp.Uptime()
	u.device, err = u.dev.AddDevice(udpDeviceID, func(env core.Env) (core.Device, error) {
		inner, err := naive.NewDevice(udpDeviceID, env)
		return &benchDevice{inner: inner, run: u}, err
	})
	if err != nil {
		return err
	}
	perCP := int(time.Duration(u.p.seconds)*time.Second/u.spec.period)*5/4 + 8
	u.probes = make([]cpProbe, u.p.cps)
	u.handles = make([]*fleet.ControlPoint, u.p.cps)
	u.lastDev = make([]atomic.Uint64, u.p.cps)
	for i := range u.probes {
		u.probes[i] = cpProbe{run: u, slot: i, rtts: make([]float64, 0, perCP), lates: make([]float64, 0, perCP)}
	}
	u.joined.Store(0)
	return nil
}

func (u *udpRun) close() {
	if u.cp != nil {
		u.cp.Close() //nolint:errcheck // teardown of loopback sockets
	}
	if u.dev != nil {
		u.dev.Close() //nolint:errcheck // teardown of loopback sockets
	}
}

// add hosts the control point of one slot.
func (u *udpRun) add(slot int) error {
	c := &u.probes[slot]
	cp, err := u.cp.AddControlPoint(fleet.CPConfig{
		ID:             u.id(slot),
		Device:         udpDeviceID,
		DeviceAddrPort: u.device.Addr(),
		Policy:         c,
		Listener:       c,
		Retransmit:     u.spec.retransmit,
	})
	u.handles[slot] = cp
	return err
}

// join adds every control point, paced over one period so phases
// spread, and waits until each has completed a cycle. It returns the
// time from the first add to steady state and each add's latency.
func (u *udpRun) join() (time.Duration, []float64, error) {
	pacer := fleet.NewJoinPacer(u.p.cps, u.spec.period)
	adds := make([]float64, 0, u.p.cps)
	start := time.Now()
	for _, slot := range u.order {
		t := time.Now()
		if err := u.add(slot); err != nil {
			return 0, nil, fmt.Errorf("add control point %v: %w", u.id(slot), err)
		}
		adds = append(adds, micros(time.Since(t)))
		pacer.Tick()
	}
	for deadline := start.Add(30 * time.Second); u.joined.Load() < int64(u.p.cps); {
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("%d of %d control points completed a cycle within 30 s", u.joined.Load(), u.p.cps)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), adds, nil
}

// tick is one reading of everything the steady window differences.
type tick struct {
	at        time.Time
	user, sys time.Duration
	cp, dev   fleet.Snapshot
}

func (u *udpRun) tick() tick {
	t := tick{at: time.Now(), cp: u.cp.Snapshot(), dev: u.dev.Snapshot()}
	t.user, t.sys = cpuTime()
	return t
}

// window is what the steady window adds up to, over every pair of
// fleets it was measured on.
type window struct {
	slice             int       // slices measured so far
	wallPer, cpuPer   []float64 // per slice: nanoseconds per packet handled
	wall, user, sys   time.Duration
	packets, cycles   float64
	in, out           float64 // packets, both fleets
	callsIn, callsOut float64 // transport calls, both fleets
	lateReplies       float64
	sent, retransmits uint64
	rtts, lates       []float64
	full              int // control points whose sample buffers filled

	// udp-churn only.
	moved, migrations              int
	drainMS, rebalanceMS           float64
	pairs, adminLates              []float64
	snapshots, histograms, scrapes []float64
	statuses                       []float64
}

// measure runs n one-second slices on the fleets that are up, checks
// the outputs of those slices and adds them to w.
func (u *udpRun) measure(r *result, w *window, n int, rnd *rng.Rand) error {
	var churn *churner
	if u.spec.churn {
		var err error
		if churn, err = startChurn(u, rnd); err != nil {
			return err
		}
	}
	migrate := func(call func() (int, error)) (ms float64) {
		t := time.Now()
		moved, err := call()
		ms = float64(time.Since(t)) / float64(time.Millisecond)
		r.Attempted++
		r.fail(boolInt(err != nil), "migration: %v", err)
		w.moved += moved
		return ms
	}
	ticks := make([]tick, 0, n+1)
	u.recording.Store(true)
	start := time.Now()
	for i := 0; ; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * udpSlice)))
		ticks = append(ticks, u.tick())
		if i == n {
			break
		}
		u.tracing.Store((w.slice+i)%2 == 0)
		switch {
		case !u.spec.churn:
		case i == n/3:
			w.drainMS = migrate(func() (int, error) { return u.cp.DrainShard(1) })
		case i == 2*n/3:
			w.rebalanceMS = migrate(u.cp.Rebalance)
		}
	}
	u.recording.Store(false)
	u.tracing.Store(false)
	if churn != nil {
		churn.stop(r, w)
	}

	sum := func(a, b tick, f func(fleet.Counters) uint64) float64 {
		return float64(f(b.cp.Total) - f(a.cp.Total) + f(b.dev.Total) - f(a.dev.Total))
	}
	packets := func(c fleet.Counters) uint64 { return c.PacketsIn + c.PacketsOut }
	for i := 1; i <= n; i++ {
		a, b := ticks[i-1], ticks[i]
		if pkts := sum(a, b, packets); pkts > 0 {
			w.wallPer = append(w.wallPer, float64(b.at.Sub(a.at))/pkts)
			w.cpuPer = append(w.cpuPer, float64((b.user-a.user)+(b.sys-a.sys))/pkts)
		}
	}
	first, end := ticks[0], ticks[n]
	w.slice += n
	w.wall += end.at.Sub(first.at)
	w.user += end.user - first.user
	w.sys += end.sys - first.sys
	w.packets += sum(first, end, packets)
	w.in += sum(first, end, func(c fleet.Counters) uint64 { return c.PacketsIn })
	w.out += sum(first, end, func(c fleet.Counters) uint64 { return c.PacketsOut })
	w.callsIn += sum(first, end, func(c fleet.Counters) uint64 { return c.SyscallsIn })
	w.callsOut += sum(first, end, func(c fleet.Counters) uint64 { return c.SyscallsOut })
	cycles := end.cp.Total.RepliesIn - first.cp.Total.RepliesIn
	w.cycles += float64(cycles)
	w.lateReplies += float64(end.cp.Total.DemuxDrops - first.cp.Total.DemuxDrops)
	w.migrations += int(end.cp.Total.Migrations - first.cp.Total.Migrations)
	r.Attempted += int(cycles)

	// Output checks on these slices.
	falseVerdicts := int(u.falseVerdicts.Swap(0))
	r.fail(falseVerdicts, "%d verdicts on a live device", falseVerdicts)
	alive := u.cp.Snapshot().Total.LiveControlPoints
	r.fail(u.p.cps-alive, "%d of %d control points alive at the end of the window", alive, u.p.cps)
	for _, s := range []fleet.Snapshot{end.cp, end.dev} {
		t := s.Total
		bad := t.DecodeErrors + t.BadFrames + t.SendErrors + t.DemuxCollisions + t.AuthRejected
		r.fail(int(bad), "fleet counted %d decode/send/collision/auth errors", bad)
	}
	for _, h := range u.handles {
		st := h.Stats()
		w.sent += st.ProbesSent
		w.retransmits += st.Retransmits
	}
	return nil
}

// harvest closes the fleets — the loops have exited, so the probes are
// the benchmark's to read — and collects their samples.
func (u *udpRun) harvest(w *window) {
	u.close()
	for i := range u.probes {
		c := &u.probes[i]
		w.rtts = append(w.rtts, c.rtts...)
		w.lates = append(w.lates, c.lates...)
		w.full += boolInt(len(c.rtts) == cap(c.rtts))
	}
}

func runUDP(spec udpSpec, p params) (*result, error) {
	r := newResult(spec.name)
	rnd := rng.New(p.seed).Fork(spec.name)
	u := &udpRun{spec: spec, p: p, epoch: time.Now(),
		idBase: ident.NodeID(10_000 + rnd.Intn(1<<20)), order: make([]int, p.cps)}
	for i := range u.order {
		u.order[i] = i
	}
	for i := len(u.order) - 1; i > 0; i-- {
		j := rnd.Intn(i + 1)
		u.order[i], u.order[j] = u.order[j], u.order[i]
	}
	if spec.retransmit == (core.RetransmitConfig{}) {
		u.spec.retransmit = core.DefaultRetransmit()
	}
	budget := u.spec.retransmit.WorstCaseDetection()
	if p.trace {
		// Four spans a cycle, recorded on every other slice.
		u.spans = newSpanLog(int(float64(p.cps)*float64(p.seconds)*float64(time.Second/spec.period)*2.5) + 4096)
	}
	adminRnd := rnd.Fork("admin")

	// Set up several times — build, join, tear down — and measure a share
	// of the window on each pair of fleets. How the kernel places the two
	// loops' threads and how the join lays out the phases is settled once
	// per pair and moves processor time per packet by up to a third, so one
	// pair a run would make runs differ by that much.
	var w window
	var setups, adds []float64
	var base, joined uint64
	var ms runtime.MemStats
	var goroutines int
	var gauges fleet.Counters
	reps := min(p.reps(udpSetupReps), p.seconds)
	defer u.close()
	for rep := 0; rep < reps; rep++ {
		if err := u.open(); err != nil {
			r.Skipped = fmt.Sprintf("no loopback: %v", err)
			return r, nil
		}
		last := rep == reps-1
		if last {
			base = liveHeap()
		}
		took, a, err := u.join()
		if err != nil {
			return nil, err
		}
		setups, adds = append(setups, took.Seconds()), a
		if last {
			joined = liveHeap()
			runtime.ReadMemStats(&ms)
			goroutines = runtime.NumGoroutine()
			gauges = u.cp.Snapshot().Total
		}
		slices := p.seconds / reps
		if rep < p.seconds%reps {
			slices++
		}
		if err := u.measure(r, &w, slices, adminRnd); err != nil {
			return nil, err
		}
		if !last {
			u.harvest(&w)
		}
	}
	hist := u.cp.Histograms()
	r.set("setup_s", setups...)
	r.set("heap_mb", float64(joined)/1e6)
	r.set("ns_per_op", w.wallPer...)
	r.set("cpu_ns_per_op", w.cpuPer...)

	// The crash, on the last pair: every control point must reach its
	// verdict no sooner than the budget after its unanswered cycle began,
	// and not much later.
	var crashAt time.Duration
	if spec.crash {
		crashAt = u.cp.Uptime()
		u.crashed.Store(true)
		time.Sleep(spec.period + budget + time.Second)
		r.Attempted += p.cps
	}
	u.harvest(&w)

	var ratios, excess, wall []float64
	if spec.crash {
		missing, early, late := 0, 0, 0
		for i := range u.probes {
			c := &u.probes[i]
			if !c.lost {
				missing++
				continue
			}
			d := c.lostAt - (c.lastReplied + c.lastDelay)
			ratios = append(ratios, float64(d)/float64(budget))
			excess = append(excess, float64(d-budget)/float64(time.Millisecond))
			wall = append(wall, float64(c.lostAt-crashAt)/float64(time.Millisecond))
			switch {
			case d < budget:
				early++
			case d > budget+lateSlack:
				late++
			}
		}
		r.fail(missing, "%d control points reached no verdict", missing)
		r.fail(early, "%d verdicts sooner than the %v budget allows", early, budget)
		r.fail(late, "%d verdicts more than %v past the budget", late, lateSlack)
	}
	if !p.trace {
		return r, nil
	}

	// Per-layer: the same window, read layer by layer.
	if w.full > 0 {
		r.warn("%d control points filled their sample buffers", w.full)
	}
	r.set("fleet.user_ns_per_pkt", float64(w.user)/w.packets)
	r.set("fleet.sys_ns_per_pkt", float64(w.sys)/w.packets)
	r.set("fleet.batch_fill_in", w.in/w.callsIn)
	r.set("fleet.batch_fill_out", w.out/w.callsOut)
	r.set("fleet.syscalls_per_pkt", (w.callsIn+w.callsOut)/w.packets)
	r.set("fleet.cpu_util", float64(w.user+w.sys)/float64(w.wall))
	r.set("fleet.retransmit_share", float64(w.retransmits)/float64(w.sent))
	r.set("fleet.late_reply_share", w.lateReplies/w.cycles)
	rtt := quantiles(w.rtts, 0.5, 0.99, 0.999)
	r.set("fleet.rtt_p50_us", rtt[0])
	r.set("fleet.rtt_p99_us", rtt[1])
	r.set("fleet.rtt_p999_us", rtt[2])
	r.set("fleet.hist_rtt_p50_us", float64(hist.ProbeRTT.Quantile(0.5)))
	r.set("fleet.cascade_p99_us", float64(hist.CascadeDuration.Quantile(0.99)))
	late := quantiles(w.lates, 0.5, 0.99)
	r.set("fleet.timer_late_p50_us", late[0])
	r.set("fleet.timer_late_p99_us", late[1])
	r.set("fleet.bytes_per_cp", (float64(joined)-float64(base))/float64(p.cps))
	r.set("fleet.join_cps_per_s", float64(p.cps)/r.median("setup_s"))
	r.set("fleet.add_cp_us", median(adds))
	r.set("fleet.heap_inuse_mb", float64(ms.HeapInuse)/1e6)
	r.set("fleet.goroutines", float64(goroutines))
	r.set("fleet.wheel_depth", float64(gauges.WheelDepth))
	r.set("fleet.pending_probes", float64(gauges.PendingProbes))
	if a, b := metrics.BucketIndex(uint64(rtt[0])), metrics.BucketIndex(hist.ProbeRTT.Quantile(0.5)); a-b > 1 || b-a > 1 {
		r.warn("fleet.hist_rtt_p50_us (%d us) and the listener's p50 (%.0f us) are more than one bucket apart",
			hist.ProbeRTT.Quantile(0.5), rtt[0])
	}
	if spec.crash {
		r.set("fleet.detect_over_budget", quantiles(ratios, 0.99)[0])
		r.set("fleet.detect_excess_p50_ms", median(excess))
		r.set("fleet.detect_wall_p50_ms", median(wall))
	}
	if spec.churn {
		pair := quantiles(w.pairs, 0.5, 0.99)
		r.set("fleet.admin_pair_p50_us", pair[0])
		r.set("fleet.admin_pair_p99_us", pair[1])
		r.set("fleet.admin_late_p50_us", median(w.adminLates))
		r.set("fleet.drain_ms", w.drainMS)
		r.set("fleet.rebalance_ms", w.rebalanceMS)
		r.set("fleet.migrations", float64(w.migrations))
		r.set("fleet.snapshot_us", median(w.snapshots))
		r.set("fleet.histograms_us", median(w.histograms))
		r.set("obs.metrics_scrape_us", median(w.scrapes))
		r.set("obs.status_us", median(w.statuses))
		if w.migrations != w.moved {
			r.warn("fleet.migrations is %d, drains and rebalances moved %d", w.migrations, w.moved)
		}
	}
	u.spans.report(r, w.cpuPer)
	if p.spans != "" {
		if err := u.spans.writeCSV(p.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// churner is udp-churn's extra load: one paced admin client issuing
// Remove+Add pairs and one scraper, each on its own goroutine.
type churner struct {
	u    *udpRun
	quit chan struct{}
	wg   sync.WaitGroup

	calls, errs                              int
	firstErr                                 error
	pairs, lates                             []float64
	snapshots, histograms, scrapes, statuses []float64
}

func startChurn(u *udpRun, rnd *rng.Rand) (*churner, error) {
	srv, err := obs.New(obs.Config{Fleet: u.cp})
	if err != nil {
		return nil, err
	}
	c := &churner{u: u, quit: make(chan struct{})}
	c.wg.Add(2)
	go func() { // the admin client: closed loop, one pair every adminInterval
		defer c.wg.Done()
		next := time.Now()
		for {
			next = next.Add(adminInterval)
			select {
			case <-c.quit:
				return
			case <-time.After(time.Until(next)):
			}
			woke := time.Now()
			slot := rnd.Intn(u.p.cps)
			err := u.cp.RemoveControlPoint(u.id(slot))
			if err == nil {
				// Removed: the loop calls this probe no more until it is added.
				u.probes[slot].havePrev = false
				err = u.add(slot)
			}
			c.pairs = append(c.pairs, micros(time.Since(woke)))
			c.lates = append(c.lates, micros(woke.Sub(next)))
			c.calls += 2
			if err != nil {
				c.errs++
				if c.firstErr == nil {
					c.firstErr = err
				}
			}
		}
	}()
	go func() { // the scraper
		defer c.wg.Done()
		t := time.NewTicker(scrapePeriod)
		defer t.Stop()
		timed := func(dst *[]float64, fn func()) {
			start := time.Now()
			fn()
			*dst = append(*dst, micros(time.Since(start)))
		}
		for n := 0; ; n++ {
			select {
			case <-c.quit:
				return
			case <-t.C:
			}
			timed(&c.snapshots, func() { u.cp.Snapshot() })
			timed(&c.histograms, func() { u.cp.Histograms() })
			timed(&c.scrapes, func() { srv.WriteMetrics(io.Discard) }) //nolint:errcheck // io.Discard cannot fail
			if n%int(time.Second/scrapePeriod) == 0 {
				timed(&c.statuses, func() { srv.WriteStatus(io.Discard) }) //nolint:errcheck // io.Discard cannot fail
			}
		}
	}()
	return c, nil
}

// stop ends both goroutines, waits for them, books the admin calls and
// hands the timings to the window.
func (c *churner) stop(r *result, w *window) {
	close(c.quit)
	c.wg.Wait()
	r.Attempted += c.calls
	r.fail(c.errs, "%d admin pairs failed, first: %v", c.errs, c.firstErr)
	w.pairs = append(w.pairs, c.pairs...)
	w.adminLates = append(w.adminLates, c.lates...)
	w.snapshots = append(w.snapshots, c.snapshots...)
	w.histograms = append(w.histograms, c.histograms...)
	w.scrapes = append(w.scrapes, c.scrapes...)
	w.statuses = append(w.statuses, c.statuses...)
}

// Spans. A traced run records, around each call into a layer, the
// span's name, start, duration and the span that caused it, into one
// preallocated buffer; spans of one probe cycle share (cp, cycle).
const (
	spanCycle         = iota // root: probe sent -> reply accepted
	spanDeviceOnProbe        // child of cycle: device engine handler + env.Send
	spanListener             // child of cycle: the benchmark's DeviceAlive
	spanPolicy               // child of cycle: the benchmark's NextDelay
	spanKinds
)

var spanNames = [spanKinds]string{"cycle", "device_on_probe", "listener", "policy_next_delay"}

type span struct {
	kind  uint8
	cp    ident.NodeID
	cycle uint32
	start time.Duration // benchmark clock
	dur   int32         // nanoseconds
	child int32         // nanoseconds covered by child spans
}

type spanLog struct {
	n   atomic.Int64
	buf []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) add(kind uint8, cp ident.NodeID, cycle uint32, start, dur, child time.Duration) {
	if i := l.n.Add(1) - 1; i < int64(len(l.buf)) {
		l.buf[i] = span{kind: kind, cp: cp, cycle: cycle, start: start, dur: int32(dur), child: int32(child)}
	}
}

func (l *spanLog) recorded() []span { return l.buf[:min(l.n.Load(), int64(len(l.buf)))] }

// report turns the spans into self times, and the alternate traced and
// untraced slices into the tracing overhead.
func (l *spanLog) report(r *result, perSlice []float64) {
	if n := l.n.Load(); n > int64(len(l.buf)) {
		r.warn("span buffer full: %d of %d spans kept", len(l.buf), n)
	}
	var self [spanKinds][]float64
	for _, s := range l.recorded() {
		self[s.kind] = append(self[s.kind], float64(s.dur-s.child))
	}
	r.set("span.cycle_us", median(self[spanCycle])/1e3)
	r.set("span.device_on_probe_ns", median(self[spanDeviceOnProbe]))
	r.set("span.listener_ns", median(self[spanListener]))
	r.set("span.policy_next_delay_ns", median(self[spanPolicy]))
	var on, off []float64
	for i, v := range perSlice {
		if i%2 == 0 {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	overhead := 0.0
	if base := median(off); base > 0 {
		overhead = 100 * (median(on) - base) / base
	}
	r.set("trace_overhead_pct", overhead)
}

func (l *spanLog) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "name,cp,cycle,parent,start_ns,end_ns")
	for _, s := range l.recorded() {
		parent := "cycle"
		if s.kind == spanCycle {
			parent = ""
		}
		fmt.Fprintf(f, "%s,%d,%d,%s,%d,%d\n", spanNames[s.kind], s.cp, s.cycle, parent, int64(s.start), int64(s.start)+int64(s.dur))
	}
	return f.Close()
}
