package simrun

import (
	"fmt"
	"sort"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/discovery"
	"presence/internal/core/naive"
	"presence/internal/core/overlay"
	"presence/internal/core/sapp"
	"presence/internal/des"
	"presence/internal/ident"
	"presence/internal/rng"
	"presence/internal/simnet"
	"presence/internal/stats"
	"presence/internal/trace"
)

// hostEnv implements core.Env for one engine instance in the simulated
// world. Control points hosting several probers (multi-device worlds)
// get one hostEnv per prober, since every engine owns one alarm slot.
type hostEnv struct {
	w     *World
	id    ident.NodeID
	alarm *des.Alarm
	// proc, when non-nil, draws the processing delay applied before each
	// outgoing message (device computation time).
	proc func() time.Duration
}

var _ core.Env = (*hostEnv)(nil)

func (e *hostEnv) Now() time.Duration { return e.w.sim.Now() }

func (e *hostEnv) Send(to ident.NodeID, msg core.Message) {
	if e.proc == nil {
		e.w.net.Send(e.id, to, msg)
		return
	}
	d := e.proc()
	e.w.sim.After(d, e.w.acquireSend(e.id, to, msg).fire)
}

// pendingSend is a message waiting out its sender's processing delay.
// Worlds recycle them (with their pre-built fire closures) so a delayed
// send allocates nothing in steady state.
type pendingSend struct {
	w        *World
	from, to ident.NodeID
	msg      core.Message
	next     *pendingSend
	fire     func()
}

func (w *World) acquireSend(from, to ident.NodeID, msg core.Message) *pendingSend {
	ps := w.freeSends
	if ps == nil {
		ps = &pendingSend{w: w}
		ps.fire = ps.send
	} else {
		w.freeSends = ps.next
	}
	ps.from, ps.to, ps.msg = from, to, msg
	return ps
}

// send hands the message to the network, releasing the slot first so the
// send may transitively reuse it.
func (ps *pendingSend) send() {
	w, from, to, msg := ps.w, ps.from, ps.to, ps.msg
	ps.msg = nil
	ps.next = w.freeSends
	w.freeSends = ps
	w.net.Send(from, to, msg)
}

func (e *hostEnv) SetAlarm(at time.Duration) { e.alarm.Set(at) }

func (e *hostEnv) StopAlarm() { e.alarm.Stop() }

// DeviceHost is one simulated device node.
type DeviceHost struct {
	ID     ident.NodeID
	Engine core.Device
	// Load bins the probes arriving at this device.
	Load *LoadRecorder
	// Announcer is non-nil when discovery is enabled.
	Announcer *discovery.Announcer

	env          *hostEnv
	announcerEnv *hostEnv
	w            *World
	alive        bool
}

// Alive reports whether the device is attached to the network.
func (d *DeviceHost) Alive() bool { return d.alive }

// CPHost is one simulated control point. It runs one prober per device
// in the world.
type CPHost struct {
	ID   ident.NodeID
	Name string
	// Prober monitors the primary device (the world's first); in
	// single-device worlds — the paper's setting — it is the only one.
	Prober *core.Prober
	// Policy is the primary prober's delay policy (protocol specific:
	// *sapp.Policy, *dcpp.Policy or *naive.Policy).
	Policy core.DelayPolicy
	// Overlay is non-nil when Config.EnableOverlay is set.
	Overlay *overlay.Manager

	// Freq is the 1/δ trace towards the primary device (nil unless
	// Config.RecordCPSeries).
	Freq *stats.TimeSeries
	// DelayStats accumulates the chosen δ values in seconds towards the
	// primary device — the steady-state "mean delay" per CP the paper
	// tabulates.
	DelayStats stats.Welford

	// Lost/LostAt record a local absence detection of the primary
	// device; LostDevices has the per-device record.
	Lost   bool
	LostAt time.Duration
	// SawBye/ByeAt record a graceful-leave notification from the primary
	// device.
	SawBye bool
	ByeAt  time.Duration
	// JoinedAt is the CP's join time.
	JoinedAt time.Duration

	// Registry is non-nil when discovery is enabled.
	Registry *discovery.Registry

	probers map[ident.NodeID]*core.Prober
	// proberList holds the probers in creation order (the world's device
	// order during AddCP, discovery order afterwards), maintained
	// incrementally so iteration never rebuilds a slice.
	proberList []*core.Prober
	policies   map[ident.NodeID]core.DelayPolicy
	lost       map[ident.NodeID]time.Duration
	discovered map[ident.NodeID]time.Duration
	expired    map[ident.NodeID]time.Duration

	w      *World
	active bool
}

// DiscoveredDevice reports when the CP's registry first saw the device.
func (h *CPHost) DiscoveredDevice(dev ident.NodeID) (time.Duration, bool) {
	at, ok := h.discovered[dev]
	return at, ok
}

// ExpiredDevice reports when the device's announcements lapsed at this
// CP (max-age expiry — the slow, discovery-only absence signal).
func (h *CPHost) ExpiredDevice(dev ident.NodeID) (time.Duration, bool) {
	at, ok := h.expired[dev]
	return at, ok
}

// Active reports whether the CP is currently in the network.
func (h *CPHost) Active() bool { return h.active }

// ProberFor returns the prober monitoring the given device (nil if the
// device is unknown).
func (h *CPHost) ProberFor(dev ident.NodeID) *core.Prober { return h.probers[dev] }

// LostDevice reports when this CP locally detected the given device's
// absence.
func (h *CPHost) LostDevice(dev ident.NodeID) (time.Duration, bool) {
	at, ok := h.lost[dev]
	return at, ok
}

// cpListener wires one prober's events into the host's measurements and
// the overlay.
type cpListener struct {
	h       *CPHost
	device  ident.NodeID
	primary bool
}

var _ core.Listener = (*cpListener)(nil)

func (l *cpListener) DeviceAlive(ident.NodeID, core.CycleResult) {}

func (l *cpListener) DeviceLost(dev ident.NodeID, at time.Duration) {
	l.h.lost[dev] = at
	if l.primary {
		l.h.Lost = true
		l.h.LostAt = at
	}
	if l.h.Registry != nil {
		// The probe layer beat announcement expiry; drop the entry so a
		// later announcement counts as a re-discovery.
		l.h.Registry.Forget(dev)
	}
	if l.h.Overlay != nil {
		l.h.Overlay.AnnounceLeave(dev)
	}
	l.h.w.tracer.Event("lost", "%s detected device %v absent", l.h.Name, dev)
	if l.h.w.OnCPLost != nil {
		l.h.w.OnCPLost(l.h, at)
	}
}

func (l *cpListener) DeviceBye(dev ident.NodeID, at time.Duration) {
	if l.primary {
		l.h.SawBye = true
		l.h.ByeAt = at
	}
	if l.h.Registry != nil {
		l.h.Registry.Forget(dev)
	}
}

// World is a deterministic simulated deployment: one or more devices,
// any number of control points, and the network between them.
type World struct {
	cfg   Config
	sim   *des.Simulation
	net   *simnet.Network
	root  *rng.Rand
	alloc ident.Allocator

	devices []*DeviceHost
	byID    map[ident.NodeID]*DeviceHost
	cps     map[ident.NodeID]*CPHost
	order   []ident.NodeID // insertion order for deterministic iteration

	cpCount   *stats.TimeSeries
	cpCountTW stats.TimeWeighted
	activeCPs int

	churnRand *rng.Rand
	cpSeq     int
	tracer    *trace.Tracer
	freeSends *pendingSend

	// OnCPLost, if set, is invoked whenever a CP locally detects a
	// device's absence.
	OnCPLost func(h *CPHost, at time.Duration)
	// OnCPJoin and OnCPLeave, if set, observe membership changes — the
	// hook internal/conformance uses to lift a scenario's join/leave
	// schedule out of a simulation run and replay it against the fleet
	// runtime. Set them before installing a population model: models
	// may join CPs at install time. The hooks must not mutate the
	// world.
	OnCPJoin  func(h *CPHost)
	OnCPLeave func(h *CPHost, at time.Duration)
}

// NewWorld builds a world with Config.Devices devices attached (default
// one, the paper's setting) and no CPs yet.
func NewWorld(cfg Config) (*World, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:  cfg,
		sim:  des.New(),
		root: rng.New(cfg.Seed),
		byID: make(map[ident.NodeID]*DeviceHost),
		cps:  make(map[ident.NodeID]*CPHost),
	}
	w.net = simnet.New(w.sim, w.root.Fork("net"), cfg.Net)
	w.churnRand = w.root.Fork("churn")
	if cfg.Trace != nil {
		w.tracer = trace.New(cfg.Trace, w.sim.Now)
	}
	w.cpCount = stats.NewTimeSeries("active_cps")
	w.cpCountTW.Observe(0, 0)
	for i := 0; i < cfg.Devices; i++ {
		if err := w.addDevice(i); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Sim exposes the simulation kernel (for scheduling scenario events).
func (w *World) Sim() *des.Simulation { return w.sim }

// Net exposes the simulated network (for failure injection).
func (w *World) Net() *simnet.Network { return w.net }

// Device returns the primary (first) device host.
func (w *World) Device() *DeviceHost { return w.devices[0] }

// Devices returns all device hosts in creation order.
func (w *World) Devices() []*DeviceHost {
	out := make([]*DeviceHost, len(w.devices))
	copy(out, w.devices)
	return out
}

// Config returns the world's (defaulted) configuration.
func (w *World) Config() Config { return w.cfg }

func (w *World) addDevice(index int) error {
	id := w.alloc.Next()
	env := &hostEnv{w: w, id: id}
	if !w.cfg.Processing.Disabled {
		label := "proc"
		if index > 0 {
			label = fmt.Sprintf("proc-%d", index)
		}
		procRand := w.root.Fork(label)
		lo, hi := w.cfg.Processing.Min, w.cfg.Processing.Max
		env.proc = func() time.Duration { return procRand.Duration(lo, hi) }
	}
	engine, err := w.cfg.Protocol.NewDevice(id, env, w.cfg.Params)
	if err != nil {
		return err
	}
	host := &DeviceHost{
		ID:     id,
		Engine: engine,
		Load:   NewLoadRecorder(fmt.Sprintf("device_load_%d", index), w.cfg.LoadBin, 0),
		env:    env,
		w:      w,
		alive:  true,
	}
	if index == 0 {
		// The primary device keeps the historical series name used by
		// the figures.
		host.Load = NewLoadRecorder("device_load", w.cfg.LoadBin, 0)
	}
	env.alarm = des.NewAlarm(w.sim, engine.OnAlarm)
	if w.cfg.Discovery.Enabled {
		annEnv := &hostEnv{w: w, id: id}
		ann, err := discovery.NewAnnouncer(id, annEnv, w.cfg.Discovery.Announce)
		if err != nil {
			return err
		}
		annEnv.alarm = des.NewAlarm(w.sim, ann.OnAlarm)
		host.Announcer, host.announcerEnv = ann, annEnv
	}
	w.net.Attach(id, w.deviceHandler(host))
	engine.Start()
	if host.Announcer != nil {
		host.Announcer.Start()
	}
	w.devices = append(w.devices, host)
	w.byID[id] = host
	return nil
}

func (w *World) deviceHandler(host *DeviceHost) simnet.Handler {
	return func(from ident.NodeID, msg any) {
		// Probes arrive in the pooled pointer form on the hot path; the
		// value form still works (tests, hand-injected messages).
		var probe core.ProbeMsg
		switch m := msg.(type) {
		case *core.ProbeMsg:
			probe = *m
		case core.ProbeMsg:
			probe = m
		default:
			return // devices only understand probes
		}
		w.tracer.Event("probe", "%v->%v cycle=%d attempt=%d", from, host.ID, probe.Cycle, probe.Attempt)
		host.Load.Record(w.sim.Now())
		host.Engine.OnProbe(from, probe)
	}
}

// AddCP creates a control point, attaches it to the network and starts
// it probing every device immediately (a joining CP is unaware of any
// schedule — the disturbance studied in Fig. 5).
func (w *World) AddCP() (*CPHost, error) {
	id := w.alloc.Next()
	w.cpSeq++
	host := &CPHost{
		ID:         id,
		Name:       fmt.Sprintf("cp_%02d", w.cpSeq),
		w:          w,
		active:     true,
		JoinedAt:   w.sim.Now(),
		probers:    make(map[ident.NodeID]*core.Prober, len(w.devices)),
		policies:   make(map[ident.NodeID]core.DelayPolicy, len(w.devices)),
		lost:       make(map[ident.NodeID]time.Duration),
		discovered: make(map[ident.NodeID]time.Duration),
		expired:    make(map[ident.NodeID]time.Duration),
	}
	if w.cfg.RecordCPSeries {
		host.Freq = stats.NewTimeSeries(host.Name + "_freq")
		if w.cfg.SeriesWindow.To > 0 {
			host.Freq.Window(w.cfg.SeriesWindow.From, w.cfg.SeriesWindow.To)
		}
		if w.cfg.SeriesDecimate > 1 {
			host.Freq.Decimate(w.cfg.SeriesDecimate)
		}
	}
	if w.cfg.EnableOverlay {
		overlayEnv := &hostEnv{w: w, id: id}
		overlayEnv.alarm = des.NewAlarm(w.sim, func() {})
		mgr, err := overlay.NewManager(id, overlayEnv, overlay.Config{})
		if err != nil {
			return nil, err
		}
		host.Overlay = mgr
	}
	if w.cfg.Discovery.Enabled {
		// Probers are created on discovery instead of up front.
		regEnv := &hostEnv{w: w, id: id}
		reg, err := discovery.NewRegistry(id, regEnv, discovery.RegistryConfig{
			SweepEvery: w.cfg.Discovery.Sweep,
			OnDiscovered: func(dev ident.NodeID, at time.Duration) {
				host.discovered[dev] = at
				if w.cfg.Discovery.ProbeOnDiscovery {
					if err := host.ensureProber(dev); err != nil {
						panic(fmt.Sprintf("simrun: prober on discovery: %v", err))
					}
				}
			},
			OnExpired: func(dev ident.NodeID, at time.Duration) {
				host.expired[dev] = at
			},
		})
		if err != nil {
			return nil, err
		}
		regEnv.alarm = des.NewAlarm(w.sim, reg.OnAlarm)
		host.Registry = reg
	} else {
		for _, dev := range w.devices {
			if err := host.ensureProber(dev.ID); err != nil {
				return nil, err
			}
		}
	}
	w.net.Attach(id, w.cpHandler(host))
	w.cps[id] = host
	w.order = append(w.order, id)
	w.noteCPCount(+1)
	if host.Registry != nil {
		host.Registry.Start()
	}
	w.tracer.Event("join", "%s (%v)", host.Name, host.ID)
	if w.OnCPJoin != nil {
		w.OnCPJoin(host)
	}
	for _, p := range host.proberList {
		p.Start()
	}
	return host, nil
}

// ensureProber builds (but does not start) the prober towards the given
// device, if missing. The prober towards the primary device carries the
// host's measurement hooks.
func (h *CPHost) ensureProber(dev ident.NodeID) error {
	if _, exists := h.probers[dev]; exists {
		return nil
	}
	w := h.w
	primary := dev == w.devices[0].ID
	policy, err := w.cfg.Protocol.NewPolicy(w.cfg.Params)
	if err != nil {
		return err
	}
	env := &hostEnv{w: w, id: h.ID}
	var observer func(time.Duration, time.Duration)
	if primary {
		observer = h.observeDelay
	}
	prober, err := core.NewProber(core.ProberOptions{
		ID:         h.ID,
		Device:     dev,
		Env:        env,
		Policy:     policy,
		Listener:   &cpListener{h: h, device: dev, primary: primary},
		Retransmit: w.cfg.Retransmit,
		Observer:   observer,
	})
	if err != nil {
		return err
	}
	env.alarm = des.NewAlarm(w.sim, prober.OnAlarm)
	h.probers[dev] = prober
	h.proberList = append(h.proberList, prober)
	h.policies[dev] = policy
	if primary {
		h.Prober, h.Policy = prober, policy
	}
	// A prober created after the CP joined (dynamic discovery) starts
	// immediately; during AddCP the caller starts all probers at once.
	if _, attached := w.cps[h.ID]; attached {
		prober.Start()
	}
	return nil
}

func (w *World) cpHandler(host *CPHost) simnet.Handler {
	return func(from ident.NodeID, msg any) {
		// Replies arrive in the pooled pointer form on the hot path;
		// normalise to the value form (keeping the payload, which may be
		// a pooled pointer valid only until this handler returns).
		if pm, ok := msg.(*core.ReplyMsg); ok {
			msg = *pm
		}
		switch m := msg.(type) {
		case core.ReplyMsg:
			if host.Overlay != nil {
				host.Overlay.ObserveReply(m.Payload)
			}
			if p, ok := host.probers[m.From]; ok {
				p.OnReply(m)
			}
		case core.ByeMsg:
			if p, ok := host.probers[m.From]; ok {
				p.OnBye(m)
			}
		case core.LeaveNotice:
			if host.Overlay != nil {
				host.Overlay.OnLeaveNotice(from, m)
			}
		case core.AnnounceMsg:
			if host.Registry != nil {
				host.Registry.OnAnnounce(m)
			}
		}
	}
}

// observeDelay records the chosen inter-cycle delay towards the primary
// device into the host's measurements.
func (h *CPHost) observeDelay(now, delay time.Duration) {
	sec := delay.Seconds()
	h.DelayStats.Add(sec)
	if h.Freq != nil && sec > 0 {
		h.Freq.Add(now, 1/sec)
	}
}

// AddCPs adds n control points.
func (w *World) AddCPs(n int) ([]*CPHost, error) {
	hosts := make([]*CPHost, 0, n)
	for i := 0; i < n; i++ {
		h, err := w.AddCP()
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// RemoveCP silently removes a control point (an unintentional leave: no
// bye, probes towards it become unroutable).
func (w *World) RemoveCP(id ident.NodeID) {
	h, ok := w.cps[id]
	if !ok || !h.active {
		return
	}
	for _, p := range h.probers {
		p.Stop()
	}
	if h.Registry != nil {
		h.Registry.Stop()
	}
	w.net.Detach(id)
	h.active = false
	w.tracer.Event("leave", "%s (%v)", h.Name, id)
	w.noteCPCount(-1)
	if w.OnCPLeave != nil {
		w.OnCPLeave(h, w.sim.Now())
	}
}

// ActiveCPs returns the currently attached CPs in join order.
func (w *World) ActiveCPs() []*CPHost {
	out := make([]*CPHost, 0, w.activeCPs)
	for _, id := range w.order {
		if h := w.cps[id]; h.active {
			out = append(out, h)
		}
	}
	return out
}

// AllCPs returns every CP that ever joined, in join order.
func (w *World) AllCPs() []*CPHost {
	out := make([]*CPHost, 0, len(w.order))
	for _, id := range w.order {
		out = append(out, w.cps[id])
	}
	return out
}

// ActiveCount returns the number of attached CPs.
func (w *World) ActiveCount() int { return w.activeCPs }

func (w *World) noteCPCount(delta int) {
	w.activeCPs += delta
	now := w.sim.Now()
	w.cpCount.Add(now, float64(w.activeCPs))
	w.cpCountTW.Observe(now, float64(w.activeCPs))
}

// KillDevice crashes the primary device silently at the current time.
// Returns the kill time.
func (w *World) KillDevice() time.Duration {
	return w.KillDeviceID(w.devices[0].ID)
}

// KillDeviceID crashes the identified device silently: it is detached
// from the network, stops answering and stops announcing. Unknown ids
// are a no-op.
func (w *World) KillDeviceID(id ident.NodeID) time.Duration {
	if host, ok := w.byID[id]; ok && host.alive {
		w.net.Detach(id)
		host.env.alarm.Stop()
		if host.Announcer != nil {
			host.Announcer.Stop()
		}
		host.alive = false
		w.tracer.Event("crash", "device %v", id)
	}
	return w.sim.Now()
}

// ReviveDevice re-attaches the primary device after a kill.
func (w *World) ReviveDevice() { w.ReviveDeviceID(w.devices[0].ID) }

// ReviveDeviceID re-attaches a killed device.
func (w *World) ReviveDeviceID(id ident.NodeID) {
	host, ok := w.byID[id]
	if !ok || host.alive {
		return
	}
	w.net.Attach(id, w.deviceHandler(host))
	host.Engine.Start()
	if host.Announcer != nil {
		host.Announcer.Start()
	}
	host.alive = true
}

// DeviceBye makes the primary device leave gracefully: it sends a bye
// to every active CP and detaches.
func (w *World) DeviceBye() { w.DeviceByeID(w.devices[0].ID) }

// DeviceByeID makes the identified device leave gracefully.
func (w *World) DeviceByeID(id ident.NodeID) {
	host, ok := w.byID[id]
	if !ok || !host.alive {
		return
	}
	for _, h := range w.ActiveCPs() {
		host.env.Send(h.ID, core.ByeMsg{From: id})
	}
	w.net.Detach(id)
	host.env.alarm.Stop()
	if host.Announcer != nil {
		host.Announcer.Stop()
	}
	host.alive = false
}

// Run advances the simulation to the given horizon and flushes the
// measurements and the trace.
func (w *World) Run(horizon time.Duration) {
	w.sim.RunUntil(horizon)
	for _, d := range w.devices {
		d.Load.Flush(w.sim.Now())
	}
	w.cpCountTW.Finish(w.sim.Now())
	if err := w.tracer.Flush(); err != nil {
		// Tracing is observability, not simulation state; a broken sink
		// must not corrupt results. Panic loudly instead of continuing
		// with a silently truncated trace.
		panic(fmt.Sprintf("simrun: %v", err))
	}
}

// ResetMeasurements discards everything measured so far (warmup
// deletion for steady-state analysis). Transient CP series are kept;
// load bins, per-CP delay statistics and buffer occupancy restart.
func (w *World) ResetMeasurements() {
	now := w.sim.Now()
	for _, d := range w.devices {
		d.Load.Reset(now)
	}
	w.net.ResetBufferStats()
	for _, h := range w.cps {
		h.DelayStats.Reset()
	}
	w.cpCountTW.Reset()
	w.cpCountTW.Observe(now, float64(w.activeCPs))
}

// DeviceLoad returns the primary device's load recorder.
func (w *World) DeviceLoad() *LoadRecorder { return w.devices[0].Load }

// CPCountSeries returns the active-CP-count trace (the step curve in
// Fig. 5).
func (w *World) CPCountSeries() *stats.TimeSeries { return w.cpCount }

// CPCountStats returns time-weighted statistics of the active CP count.
func (w *World) CPCountStats() *stats.TimeWeighted {
	w.cpCountTW.Finish(w.sim.Now())
	return &w.cpCountTW
}

// CPFrequencies returns each active CP's most recent probe frequency
// towards the primary device (1/δ, per second), sorted ascending — the
// fairness snapshot.
func (w *World) CPFrequencies() []float64 {
	return w.CPFrequenciesFor(w.devices[0].ID)
}

// CPFrequenciesFor returns the fairness snapshot towards the given
// device.
func (w *World) CPFrequenciesFor(dev ident.NodeID) []float64 {
	var out []float64
	for _, h := range w.ActiveCPs() {
		switch p := h.policies[dev].(type) {
		case *sapp.Policy:
			if d := p.Delay().Seconds(); d > 0 {
				out = append(out, 1/d)
			}
		case *dcpp.Policy:
			if d := p.LastWait().Seconds(); d > 0 {
				out = append(out, 1/d)
			}
		case *naive.Policy:
			out = append(out, 1/p.Period().Seconds())
		}
	}
	sort.Float64s(out)
	return out
}
