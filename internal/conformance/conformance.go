// Package conformance is the differential test harness between the
// repository's two protocol runtimes: the discrete-event simulator
// (internal/simrun) and the production fleet runtime (internal/fleet).
// Both host the exact same engine code from internal/core; this
// package proves they also *behave* the same when driven by the same
// declarative scenario, under injected loss, delay, duplication and
// reordering.
//
// One Run of a Case proceeds in three steps:
//
//  1. Simulate. The scenario Spec compiles and runs in the simulator.
//     Membership hooks (simrun.World.OnCPJoin/OnCPLeave) lift the
//     realised join/leave schedule out of the run, and the standard
//     measurements yield detection latency, device load, false
//     positives and bye coverage.
//  2. Replay. The identical schedule plays against a real fleet —
//     shard event loops, timer wheels, shared-socket demux — over an
//     internal/memnet network whose fault plan is built from the same
//     Spec (the scenario's own loss and delay models, per-link streams
//     seeded from the scenario seed). The device crash or bye fires at
//     the same offset. Meanwhile a Checker (see invariants.go) taps
//     every datagram and every presence verdict and verifies the
//     protocol invariants online.
//  3. Diff. Schedule-derived counts must match exactly; behavioural
//     metrics must agree within stated tolerances; the invariant list
//     must be empty.
//
// # Why tolerances, and why these
//
// The simulator is bit-deterministic; the fleet half runs on the wall
// clock with real goroutines, so its metrics carry scheduling jitter
// and its fault draws, while reproducible per link, interleave
// nondeterministically across links. The two runtimes also draw
// independent random sequences. Differential assertions are therefore
// banded, sized from the protocol, not tuned until green:
//
//   - Detection latency: a crash lands at a uniform phase of each CP's
//     inter-cycle wait δ (bounded by k·δ_min, here ≤ 1 s), then costs
//     the fixed failed-cycle budget TOF + 3·TOS = 85 ms. Sample means
//     over ≤ 10 present CPs have a standard error of roughly
//     δ/√12/√n ≈ 0.1 s per side; the default 0.35 s absolute (0.8 s
//     for the max, an extreme statistic) plus 50% relative band is
//     ≈ 2.5σ of the *difference* with headroom for a loaded CI box.
//   - Device load: DCPP pins steady load at L_nom = 10 probes/s
//     regardless of population, so the band is mostly absorbing ramp
//     phases and bin-edge effects: 2 probes/s + 35%.
//   - Fractions (detection coverage, false positives, bye coverage):
//     small-n binomials over ≤ ~15 CPs; ±0.35 absolute, ±0.6 under
//     burst loss where both numerators ride independent loss draws.
//
// Violations have no tolerance: zero or the case fails.
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"presence/internal/core"
	"presence/internal/core/protocol"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/obs"
	"presence/internal/scenario"
	"presence/internal/simnet"
	"presence/internal/simrun"
	"presence/internal/trace"
)

// Tolerances bands the simulator-vs-fleet metric diffs. See the
// package comment for the rationale behind the defaults.
type Tolerances struct {
	// DetectMeanAbs and DetectMaxAbs are absolute slacks (seconds) on
	// the detection-latency mean and max.
	DetectMeanAbs float64
	DetectMaxAbs  float64
	// DetectRel is the relative slack on both latency diffs.
	DetectRel float64
	// FracAbs is the absolute slack on fraction metrics (detection
	// coverage, false-positive fraction, bye coverage).
	FracAbs float64
	// LoadAbs (probes/s) and LoadRel band the device-load diff.
	LoadAbs float64
	LoadRel float64
}

// DefaultTolerances returns the package-comment defaults.
func DefaultTolerances() Tolerances {
	return Tolerances{
		DetectMeanAbs: 0.35,
		DetectMaxAbs:  0.8,
		DetectRel:     0.5,
		FracAbs:       0.35,
		LoadAbs:       2.0,
		LoadRel:       0.35,
	}
}

// Case names one registered scenario and how to replay it.
type Case struct {
	// Scenario is a registered scenario name (or JSON file path). The
	// Spec must schedule exactly one device event: one crash_at or one
	// bye_at inside the horizon.
	Scenario string
	// Shards is the CP fleet's shard count (0 = 2, exercising the
	// cross-shard demux with a deterministic shard assignment).
	Shards int
	// ExtraReorderP adds explicit reordering on top of the scenario's
	// delay model: held-back datagrams are overtaken by later traffic.
	// The hold (2 ms) is far below every protocol timeout, so a
	// conforming runtime's metrics must not move.
	ExtraReorderP float64
	// ByeGrace is how long after a bye the device stays reachable so
	// in-flight bye frames deliver (the simulator's device detaches
	// instantly but its in-flight sends still deliver). 0 = 25 ms.
	ByeGrace time.Duration
	// Harden enables the fleet's adversarial defenses (fleet
	// RuntimeConfig.Harden) on both the CP and device fleets.
	Harden bool
	// Auth enables frame authentication on both fleets: a shared test
	// master key with Require set, so every frame carries a v2 authentication tag
	// and unauthenticated frames are refused. Benign replays with Auth
	// on must land inside the same tolerance bands as without — signing
	// and verifying every frame must not move a single metric.
	Auth bool
	// ViaAdmin drives the fleet-side membership through the runtime
	// admin plane — HTTP POSTs against an obs server with Config.Admin —
	// instead of direct AddControlPoint/Remove calls, proving the
	// production admin endpoints realise the same schedule. Verdicts
	// then flow through the fleet-wide Config.Verdicts hook (the admin
	// plane attaches no per-CP listeners).
	ViaAdmin bool
	// Tol bands the metric diffs (zero value = DefaultTolerances).
	Tol Tolerances
}

func (c *Case) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.ByeGrace == 0 {
		c.ByeGrace = 25 * time.Millisecond
	}
	if c.Tol == (Tolerances{}) {
		c.Tol = DefaultTolerances()
	}
}

// DefaultCases returns the standing battery: the conf-* named
// scenarios — fast uniform churn (replayed three times: through the
// direct fleet API, through the runtime admin endpoints, and with
// frame authentication on), the same churn over a Gilbert-Elliott
// burst-loss channel, and flash-crowd cohorts with a graceful bye —
// each with a pinch of extra reordering. The authenticated replay pins
// that signing and verifying every frame moves no metric: the sim
// baseline it diffs against knows nothing about auth.
func DefaultCases() []Case {
	lossy := DefaultTolerances()
	lossy.FracAbs = 0.6
	lossy.LoadRel = 0.5
	return []Case{
		{Scenario: "conf-churn", ExtraReorderP: 0.05},
		{Scenario: "conf-admin-churn", ExtraReorderP: 0.05, ViaAdmin: true},
		{Scenario: "conf-auth-churn", ExtraReorderP: 0.05, Auth: true},
		{Scenario: "conf-bursty-loss", ExtraReorderP: 0.05, Tol: lossy},
		{Scenario: "conf-flash-crowd", ExtraReorderP: 0.05},
	}
}

// RuntimeMetrics is one runtime's view of a scenario run, in the same
// shape for both so they diff field by field.
type RuntimeMetrics struct {
	// TotalJoined counts every CP that ever joined.
	TotalJoined int `json:"total_joined"`
	// PresentAtEvent counts CPs joined before and not left by the
	// device event — the detection-denominator population.
	PresentAtEvent int `json:"present_at_event"`
	// Detected counts present CPs that reported DeviceLost after the
	// event; DetectMean/DetectMax summarise their latencies in seconds.
	Detected   int     `json:"detected"`
	DetectMean float64 `json:"detect_mean_s"`
	DetectMax  float64 `json:"detect_max_s"`
	DetectFrac float64 `json:"detect_frac"`
	// FalseLost counts DeviceLost verdicts before the event (loss
	// bursts eating a whole probe cycle); FalseLostFrac is over
	// TotalJoined.
	FalseLost     int     `json:"false_lost"`
	FalseLostFrac float64 `json:"false_lost_frac"`
	// ByeSeen counts present CPs that saw the device's bye.
	ByeSeen int     `json:"bye_seen"`
	ByeFrac float64 `json:"bye_frac"`
	// LoadMean is the mean probe arrival rate at the device (probes/s)
	// from start until the event.
	LoadMean float64 `json:"load_mean_probes_per_sec"`
}

// Diff is one banded metric comparison.
type Diff struct {
	Name  string  `json:"name"`
	Sim   float64 `json:"sim"`
	Fleet float64 `json:"fleet"`
	Abs   float64 `json:"abs_tol"`
	Rel   float64 `json:"rel_tol"`
	OK    bool    `json:"ok"`
}

// Result is one case's outcome.
type Result struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Bye reports whether the device event was a graceful bye (false =
	// silent crash).
	Bye   bool           `json:"bye"`
	Sim   RuntimeMetrics `json:"sim"`
	Fleet RuntimeMetrics `json:"fleet"`
	// Diffs holds every comparison; Violations every invariant breach
	// (must be empty); TappedPackets how many datagram events the
	// checker inspected; Net is the fake network's accounting (loss,
	// duplication, partition drops actually injected).
	Diffs         []Diff          `json:"diffs"`
	Violations    []string        `json:"violations"`
	TappedPackets uint64          `json:"tapped_packets"`
	Net           memnet.Counters `json:"net_counters"`
	// Flight is the CP fleet's normalized flight-recorder timeline (one
	// line per CP, timestamps stripped, cycles rebased — see
	// trace.Normalize): the per-device probe-lifecycle evidence a failing
	// diff is debugged from.
	Flight []string `json:"flight,omitempty"`
	Pass   bool     `json:"pass"`
}

// Format renders the result as a readable block (valid Markdown).
func (r *Result) Format() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	event := "crash"
	if r.Bye {
		event = "bye"
	}
	fmt.Fprintf(&b, "### conformance %s — seed %d, device %s — %s\n\n", r.Scenario, r.Seed, event, verdict)
	b.WriteString("| metric | sim | fleet | tolerance | ok |\n")
	b.WriteString("|--------|-----|-------|-----------|----|\n")
	for _, d := range r.Diffs {
		tol := "exact"
		if d.Abs != 0 || d.Rel != 0 {
			tol = fmt.Sprintf("±%.3g+%.0f%%", d.Abs, d.Rel*100)
		}
		ok := "yes"
		if !d.OK {
			ok = "NO"
		}
		fmt.Fprintf(&b, "| %s | %.4g | %.4g | %s | %s |\n", d.Name, d.Sim, d.Fleet, tol, ok)
	}
	fmt.Fprintf(&b, "\n- invariants: %d violations over %d tapped packets\n", len(r.Violations), r.TappedPackets)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  - VIOLATION: %s\n", v)
	}
	// On failure, attach the flight-recorder timelines: which probes each
	// CP sent, what came back, and where the verdict landed.
	if !r.Pass && len(r.Flight) > 0 {
		const maxLines = 12
		fmt.Fprintf(&b, "- flight recorder (%d control points):\n", len(r.Flight))
		for i, line := range r.Flight {
			if i == maxLines {
				fmt.Fprintf(&b, "  … %d more\n", len(r.Flight)-maxLines)
				break
			}
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// schedule is the realised membership timeline lifted from the
// simulation run, replayed verbatim against the fleet.
type schedule struct {
	joinAt  []time.Duration // per CP index, ascending in index
	leaveAt []time.Duration // -1 = never left
	horizon time.Duration
	eventAt time.Duration // the single crash/bye instant
	bye     bool
}

// present reports whether CP i is in the detection population: joined
// at or before the event and not yet left.
func (s *schedule) present(i int) bool {
	return s.joinAt[i] <= s.eventAt && (s.leaveAt[i] < 0 || s.leaveAt[i] > s.eventAt)
}

func (s *schedule) presentCount() int {
	n := 0
	for i := range s.joinAt {
		if s.present(i) {
			n++
		}
	}
	return n
}

// Run executes one differential case.
func Run(c Case, seed uint64) (*Result, error) {
	c.applyDefaults()
	spec, err := scenario.Resolve(c.Scenario)
	if err != nil {
		return nil, err
	}
	switch {
	case len(spec.CrashAt)+len(spec.ByeAt) != 1:
		return nil, fmt.Errorf("conformance: scenario %s must schedule exactly one crash_at or bye_at, has %d/%d",
			spec.Name, len(spec.CrashAt), len(spec.ByeAt))
	case spec.Devices > 1:
		return nil, fmt.Errorf("conformance: scenario %s: multi-device specs not supported", spec.Name)
	case spec.Discovery != nil || spec.Overlay:
		return nil, fmt.Errorf("conformance: scenario %s: discovery/overlay layers not hosted by the fleet runtime", spec.Name)
	}

	res := &Result{Scenario: spec.Name, Seed: seed}
	sched, simM, err := runSim(spec, seed)
	if err != nil {
		return nil, err
	}
	res.Bye = sched.bye
	res.Sim = simM

	out, err := runFleet(spec, sched, c, seed)
	if err != nil {
		return nil, err
	}
	res.Fleet = out.metrics
	res.Violations = out.violations
	res.TappedPackets = out.tapped
	res.Net = out.net
	res.Flight = out.flight

	tol := c.Tol
	add := func(name string, sim, fl, abs, rel float64) {
		diff := math.Abs(sim - fl)
		band := abs + rel*math.Max(math.Abs(sim), math.Abs(fl))
		res.Diffs = append(res.Diffs, Diff{
			Name: name, Sim: sim, Fleet: fl, Abs: abs, Rel: rel,
			OK: diff <= band,
		})
	}
	// Schedule-derived counts replay verbatim: exact or the harness
	// itself is broken.
	add("total_joined", float64(simM.TotalJoined), float64(res.Fleet.TotalJoined), 0, 0)
	add("present_at_event", float64(simM.PresentAtEvent), float64(res.Fleet.PresentAtEvent), 0, 0)
	if sched.bye {
		add("bye_frac", simM.ByeFrac, res.Fleet.ByeFrac, tol.FracAbs, 0)
	} else {
		add("detect_frac", simM.DetectFrac, res.Fleet.DetectFrac, tol.FracAbs, 0)
		add("detect_mean_s", simM.DetectMean, res.Fleet.DetectMean, tol.DetectMeanAbs, tol.DetectRel)
		add("detect_max_s", simM.DetectMax, res.Fleet.DetectMax, tol.DetectMaxAbs, tol.DetectRel)
	}
	add("false_lost_frac", simM.FalseLostFrac, res.Fleet.FalseLostFrac, tol.FracAbs, 0)
	add("load_mean_probes_per_sec", simM.LoadMean, res.Fleet.LoadMean, tol.LoadAbs, tol.LoadRel)

	res.Pass = len(res.Violations) == 0
	for _, d := range res.Diffs {
		if !d.OK {
			res.Pass = false
		}
	}
	return res, nil
}

// runSim executes the scenario in the simulator, lifting the realised
// membership schedule and the runtime metrics out of the run.
func runSim(spec *scenario.Spec, seed uint64) (*schedule, RuntimeMetrics, error) {
	var m RuntimeMetrics
	cfg, err := spec.Config(seed)
	if err != nil {
		return nil, m, err
	}
	w, err := simrun.NewWorld(cfg)
	if err != nil {
		return nil, m, err
	}
	sched := &schedule{horizon: spec.Horizon.Std(), bye: len(spec.ByeAt) == 1}
	if sched.bye {
		sched.eventAt = spec.ByeAt[0].Std()
	} else {
		sched.eventAt = spec.CrashAt[0].Std()
	}
	if sched.eventAt <= 0 || sched.eventAt >= sched.horizon {
		return nil, m, fmt.Errorf("conformance: device event at %v outside horizon %v", sched.eventAt, sched.horizon)
	}
	idxOf := make(map[ident.NodeID]int)
	var hosts []*simrun.CPHost
	w.OnCPJoin = func(h *simrun.CPHost) {
		idxOf[h.ID] = len(sched.joinAt)
		hosts = append(hosts, h)
		sched.joinAt = append(sched.joinAt, h.JoinedAt)
		sched.leaveAt = append(sched.leaveAt, -1)
	}
	w.OnCPLeave = func(h *simrun.CPHost, at time.Duration) {
		sched.leaveAt[idxOf[h.ID]] = at
	}
	if err := spec.Populate(w); err != nil {
		return nil, m, err
	}
	// Count probes delivered to the device right before the event (the
	// instant itself belongs to the event).
	var probesAtEvent uint64
	w.Sim().At(sched.eventAt-time.Nanosecond, func() {
		probesAtEvent = w.DeviceLoad().Total()
	})
	w.Run(sched.horizon)

	dev := w.Device().ID
	var lat []float64
	for i, h := range hosts {
		lostAt, lost := h.LostDevice(dev)
		if lost && lostAt <= sched.eventAt {
			m.FalseLost++
			continue
		}
		if !sched.present(i) {
			continue
		}
		if lost && lostAt > sched.eventAt {
			lat = append(lat, (lostAt - sched.eventAt).Seconds())
		}
		if h.SawBye {
			m.ByeSeen++
		}
	}
	// The sim's own counts: the schedule was lifted from this very run's
	// membership hooks, so it is the sim-observed state.
	m.TotalJoined = len(sched.joinAt)
	m.PresentAtEvent = sched.presentCount()
	fillMetrics(&m, sched, lat, probesAtEvent)
	return sched, m, nil
}

// fillMetrics completes the derived fields of one runtime's metrics.
// The caller has already set TotalJoined and PresentAtEvent from that
// runtime's OWN observations — never from the other side's — so the
// exact-match diffs on those counts genuinely test the replay.
func fillMetrics(m *RuntimeMetrics, sched *schedule, lat []float64, probesAtEvent uint64) {
	m.Detected = len(lat)
	for _, l := range lat {
		m.DetectMean += l
		if l > m.DetectMax {
			m.DetectMax = l
		}
	}
	if len(lat) > 0 {
		m.DetectMean /= float64(len(lat))
	}
	if m.PresentAtEvent > 0 {
		m.DetectFrac = float64(m.Detected) / float64(m.PresentAtEvent)
		m.ByeFrac = float64(m.ByeSeen) / float64(m.PresentAtEvent)
	}
	if m.TotalJoined > 0 {
		m.FalseLostFrac = float64(m.FalseLost) / float64(m.TotalJoined)
	}
	m.LoadMean = float64(probesAtEvent) / sched.eventAt.Seconds()
}

// faultsFrom builds the memnet fault plan from the Spec's own network
// models: the same delay model, a fresh per-link instance of the same
// loss model, the same duplication probability.
func faultsFrom(spec *scenario.Spec, seed uint64, c Case) (memnet.Faults, error) {
	cfg, err := spec.Config(seed)
	if err != nil {
		return memnet.Faults{}, err
	}
	f := memnet.Faults{
		Seed:       seed,
		Delay:      cfg.Net.Delay,
		DuplicateP: cfg.Net.DuplicateP,
		ReorderP:   c.ExtraReorderP,
	}
	if f.Delay == nil {
		f.Delay = simnet.PaperModes()
	}
	if cfg.Net.Loss != nil {
		f.NewLoss = func() simnet.LossModel {
			linkCfg, err := spec.Config(seed)
			if err != nil || linkCfg.Net.Loss == nil {
				// Config already compiled once above; it cannot start
				// failing for the same spec and seed.
				panic(fmt.Sprintf("conformance: recompiling loss model: %v", err))
			}
			return linkCfg.Net.Loss
		}
	}
	return f, nil
}

// deviceID is the fleet-side device's node id; CP ids start above it.
const deviceID ident.NodeID = 1

func cpID(idx int) ident.NodeID { return ident.NodeID(1000 + idx) }

// cpRecord collects one fleet CP's presence verdicts (wall clock).
type cpRecord struct {
	lostAt time.Time
	byeAt  time.Time
}

// cpListener funnels one CP's verdicts into the collector and the
// checker. It runs on the shard event loop: cheap, non-blocking.
type cpListener struct {
	col *collector
	idx int
	id  ident.NodeID
}

func (l cpListener) DeviceAlive(ident.NodeID, core.CycleResult) {}

func (l cpListener) DeviceLost(_ ident.NodeID, _ time.Duration) {
	now := time.Now()
	l.col.mu.Lock()
	if l.col.recs[l.idx].lostAt.IsZero() {
		l.col.recs[l.idx].lostAt = now
	}
	l.col.mu.Unlock()
	l.col.checker.CPLost(l.id, l.col.net.Counters().Sent)
}

func (l cpListener) DeviceBye(_ ident.NodeID, _ time.Duration) {
	now := time.Now()
	l.col.mu.Lock()
	if l.col.recs[l.idx].byeAt.IsZero() {
		l.col.recs[l.idx].byeAt = now
	}
	l.col.mu.Unlock()
	l.col.checker.CPBye(l.id, l.col.net.Counters().Sent)
}

// collector holds every fleet CP's verdict record.
type collector struct {
	mu      sync.Mutex
	recs    []cpRecord
	checker *Checker
	// net marks verdicts for the checker with its send count.
	net *memnet.Network
}

// onVerdict is the fleet-wide verdict hook used by ViaAdmin replays:
// the admin plane attaches no per-CP listeners, so verdicts arrive
// through fleet Config.Verdicts and are keyed back to CP indices by the
// cpID convention. Runs on the shard event loop: cheap, non-blocking.
func (col *collector) onVerdict(ev fleet.VerdictEvent) {
	idx := int(ev.CP) - int(cpID(0))
	if idx < 0 || idx >= len(col.recs) {
		return
	}
	now := time.Now()
	col.mu.Lock()
	switch ev.Kind {
	case fleet.VerdictLost:
		if col.recs[idx].lostAt.IsZero() {
			col.recs[idx].lostAt = now
		}
	case fleet.VerdictBye:
		if col.recs[idx].byeAt.IsZero() {
			col.recs[idx].byeAt = now
		}
	}
	col.mu.Unlock()
	switch ev.Kind {
	case fleet.VerdictLost:
		col.checker.CPLost(ev.CP, col.net.Counters().Sent)
	case fleet.VerdictBye:
		col.checker.CPBye(ev.CP, col.net.Counters().Sent)
	}
}

// adminClient drives the fleet's runtime admin plane over real HTTP —
// the ViaAdmin replay path.
type adminClient struct {
	base   string
	client http.Client
}

func (a *adminClient) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := a.client.Post(a.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, r.Status, strings.TrimSpace(string(msg)))
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// addCP joins one control point through POST /admin/cp/add, carrying
// the same protocol and retransmit parameters the direct path uses
// (the admin plane builds paper-default sapp/dcpp policies — exactly
// what the conformance scenarios' compiled configs hold). Returns the
// shard the fleet placed it on.
func (a *adminClient) addCP(id ident.NodeID, cfg simrun.Config, devAddr netip.AddrPort) (int, error) {
	req := map[string]any{
		"id":       uint32(id),
		"device":   uint32(deviceID),
		"addr":     devAddr.String(),
		"protocol": string(cfg.Protocol),
		"retransmit": map[string]any{
			"first_timeout":   cfg.Retransmit.FirstTimeout.String(),
			"retry_timeout":   cfg.Retransmit.RetryTimeout.String(),
			"max_retransmits": cfg.Retransmit.MaxRetransmits,
		},
	}
	if cfg.Protocol == protocol.Naive {
		req["period"] = cfg.NaivePeriod.String()
	}
	var resp struct {
		Shard int `json:"shard"`
	}
	if err := a.post("/admin/cp/add", req, &resp); err != nil {
		return 0, err
	}
	return resp.Shard, nil
}

func (a *adminClient) removeCP(id ident.NodeID) error {
	return a.post("/admin/cp/remove", map[string]any{"id": uint32(id)}, nil)
}

// timeline event kinds, in tie-break order: a join at the same instant
// as the device event still joins first, like the simulator's
// same-time event ordering (insertion order puts population events
// before the scheduled crash).
const (
	evJoin = iota
	evDevice
	evDown
	evLeave
)

type timelineEvent struct {
	at   time.Duration
	kind int
	idx  int
}

// fleetOutcome is everything one fleet replay produced.
type fleetOutcome struct {
	metrics    RuntimeMetrics
	violations []string
	tapped     uint64
	net        memnet.Counters
	// Robustness accounting (meaningful when the spec has an adversary;
	// all zero otherwise): falseAbsent counts absent-type verdicts (lost
	// or bye) issued while the device was demonstrably up, falsePresent
	// counts present CPs that never reported the crash by the horizon.
	falseAbsent  int
	falsePresent int
	cpCounters   fleet.Counters
	devCounters  fleet.Counters
	proberStats  core.ProberStats
	adv          *advTaps
	// flight is the CP fleet's normalized flight-recorder dump, captured
	// before the fleets close.
	flight []string
}

// runFleet replays the schedule against a real fleet over memnet.
func runFleet(spec *scenario.Spec, sched *schedule, c Case, seed uint64) (fleetOutcome, error) {
	var out fleetOutcome
	m := &out.metrics
	cfg, err := spec.Config(seed)
	if err != nil {
		return out, err
	}
	cfg = cfg.WithDefaults()

	faults, err := faultsFrom(spec, seed, c)
	if err != nil {
		return out, err
	}
	net := memnet.New(faults)
	defer net.Close()
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

	checker := NewChecker(cfg.Retransmit)

	// With Auth on, both fleets share one master key and refuse
	// unauthenticated frames: the strongest negotiation posture, and the
	// one the adv-auth-* gates assume (a first-contact v1 frame is a
	// downgrade by definition, not a legacy peer).
	rt := fleet.RuntimeConfig{Harden: c.Harden}
	if c.Auth {
		rt.AuthKey, rt.AuthRequire = []byte("conformance-master-key"), true
	}

	devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport, RuntimeConfig: rt})
	if err != nil {
		return out, err
	}
	defer devFleet.Close()
	if err := devFleet.Start(); err != nil {
		return out, err
	}
	dev, err := devFleet.AddDevice(deviceID, func(env core.Env) (core.Device, error) {
		return cfg.Protocol.NewDevice(deviceID, env, cfg.Params)
	})
	if err != nil {
		return out, err
	}
	checker.SetDevice(dev.Addr())

	// Attach the scenario's attackers (no-op for benign specs), then
	// install the tap — composed so reflected traffic at the amplifier's
	// victim is counted — before any CP can send.
	adv, err := installAdversaries(net, spec, dev.Addr())
	if err != nil {
		return out, err
	}
	out.adv = adv
	observe := checker.OnPacket
	if adv != nil && adv.victimAddr.IsValid() {
		victim := adv.victimAddr
		observe = func(ev memnet.PacketEvent) {
			if ev.Verdict == memnet.Delivered && !ev.Injected && ev.To == victim {
				adv.victimReplies.Add(1)
			}
			checker.OnPacket(ev)
		}
	}
	net.Observe(observe)

	n := len(sched.joinAt)
	col := &collector{recs: make([]cpRecord, n), checker: checker, net: net}
	cps := make([]*fleet.ControlPoint, n)

	fcfg := fleet.Config{Shards: c.Shards, Transport: transport, RuntimeConfig: rt}
	if c.ViaAdmin {
		fcfg.Verdicts = col.onVerdict
	}
	cpFleet, err := fleet.New(fcfg)
	if err != nil {
		return out, err
	}
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		return out, err
	}
	shardAddrs := cpFleet.Addrs()

	var admin *adminClient
	if c.ViaAdmin {
		srv, err := obs.New(obs.Config{Fleet: cpFleet, Admin: true})
		if err != nil {
			return out, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return out, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // teardown best-effort
		}()
		admin = &adminClient{base: "http://" + addr.String()}
	}

	timeline := make([]timelineEvent, 0, 2*n+2)
	for i, at := range sched.joinAt {
		timeline = append(timeline, timelineEvent{at: at, kind: evJoin, idx: i})
	}
	for i, at := range sched.leaveAt {
		if at >= 0 {
			timeline = append(timeline, timelineEvent{at: at, kind: evLeave, idx: i})
		}
	}
	timeline = append(timeline, timelineEvent{at: sched.eventAt, kind: evDevice})
	if sched.bye {
		timeline = append(timeline, timelineEvent{at: sched.eventAt + c.ByeGrace, kind: evDown})
	}
	sort.SliceStable(timeline, func(i, j int) bool {
		if timeline[i].at != timeline[j].at {
			return timeline[i].at < timeline[j].at
		}
		return timeline[i].kind < timeline[j].kind
	})

	// The fleet's own membership bookkeeping: counted from successful
	// Add/Remove calls, so the exact-match diffs against the sim's
	// counts fail if the replay drops an event.
	var (
		t0            = time.Now()
		eventWall     time.Time
		probesAtEvent uint64
		joined        int
		presentNow    int
	)
	for _, ev := range timeline {
		if d := time.Until(t0.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		switch ev.kind {
		case evJoin:
			id := cpID(ev.idx)
			checker.RegisterCP(id)
			if admin != nil {
				shard, err := admin.addCP(id, cfg, dev.Addr())
				if err != nil {
					return out, fmt.Errorf("conformance: admin join cp %d: %w", ev.idx, err)
				}
				checker.SetShard(id, shardAddrs[shard])
			} else {
				policy, err := cfg.Protocol.NewPolicy(cfg.Params)
				if err != nil {
					return out, err
				}
				cp, err := cpFleet.AddControlPoint(fleet.CPConfig{
					ID:             id,
					Device:         deviceID,
					DeviceAddrPort: dev.Addr(),
					Policy:         policy,
					Listener:       cpListener{col: col, idx: ev.idx, id: id},
					Retransmit:     cfg.Retransmit,
				})
				if err != nil {
					return out, fmt.Errorf("conformance: join cp %d: %w", ev.idx, err)
				}
				checker.SetShard(id, shardAddrs[cp.Shard()])
				cps[ev.idx] = cp
			}
			joined++
			presentNow++
		case evLeave:
			if admin != nil {
				if err := admin.removeCP(cpID(ev.idx)); err != nil {
					return out, fmt.Errorf("conformance: admin leave cp %d: %w", ev.idx, err)
				}
			} else {
				cps[ev.idx].Remove()
			}
			// Every send of the CP reached the network before Remove
			// returned; the mark separates those from any later ones.
			checker.CPRemoved(cpID(ev.idx), net.Counters().Sent)
			presentNow--
		case evDevice:
			eventWall = time.Now()
			probesAtEvent = devFleet.Snapshot().Total.PacketsIn
			m.PresentAtEvent = presentNow
			if sched.bye {
				dev.Bye()
			} else {
				net.SetDown(dev.Addr(), true)
			}
		case evDown:
			net.SetDown(dev.Addr(), true)
		}
	}
	if d := time.Until(t0.Add(sched.horizon)); d > 0 {
		time.Sleep(d)
	}
	endWall := t0.Add(sched.horizon)

	// The replay's own clock realises the schedule with scheduling
	// jitter; measure load over the realised pre-event span.
	eventSec := eventWall.Sub(t0).Seconds()

	col.mu.Lock()
	var lat []float64
	for i := range col.recs {
		rec := col.recs[i]
		// Robustness bookkeeping: any absent-type verdict before the
		// device event is false (the device was up), and under a crash a
		// present CP with no verdict at all by the horizon holds a false
		// PRESENT belief.
		if (!rec.lostAt.IsZero() && !rec.lostAt.After(eventWall)) ||
			(!rec.byeAt.IsZero() && !rec.byeAt.After(eventWall)) {
			out.falseAbsent++
		}
		if !sched.bye && sched.present(i) && rec.lostAt.IsZero() && rec.byeAt.IsZero() {
			out.falsePresent++
		}
		if !rec.lostAt.IsZero() && !rec.lostAt.After(eventWall) {
			m.FalseLost++
			continue
		}
		if !sched.present(i) {
			continue
		}
		if !rec.lostAt.IsZero() && rec.lostAt.After(eventWall) && !rec.lostAt.After(endWall) {
			lat = append(lat, rec.lostAt.Sub(eventWall).Seconds())
		}
		if !rec.byeAt.IsZero() && !rec.byeAt.After(endWall) {
			m.ByeSeen++
		}
	}
	col.mu.Unlock()
	m.TotalJoined = joined
	fillMetricsWall(m, sched, lat, probesAtEvent, eventSec)
	out.violations = checker.Violations()
	out.tapped = checker.Packets()
	out.net = net.Counters()
	out.flight = trace.Normalize(cpFleet.FlightSnapshot())
	out.cpCounters = cpFleet.Snapshot().Total
	out.devCounters = devFleet.Snapshot().Total
	for _, cp := range cps {
		if cp == nil {
			continue
		}
		st := cp.Stats()
		out.proberStats.ByeVerifications += st.ByeVerifications
		out.proberStats.SpoofedByes += st.SpoofedByes
	}
	return out, nil
}

// fillMetricsWall mirrors fillMetrics with a wall-clock load window.
func fillMetricsWall(m *RuntimeMetrics, sched *schedule, lat []float64, probesAtEvent uint64, eventSec float64) {
	fillMetrics(m, sched, lat, 0)
	if eventSec > 0 {
		m.LoadMean = float64(probesAtEvent) / eventSec
	}
}

// RunSuite executes every case of the standing battery with one seed.
func RunSuite(seed uint64) ([]*Result, error) {
	var out []*Result
	for _, c := range DefaultCases() {
		r, err := Run(c, seed)
		if err != nil {
			return out, fmt.Errorf("conformance: %s: %w", c.Scenario, err)
		}
		out = append(out, r)
	}
	return out, nil
}
