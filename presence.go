package presence

import (
	"presence/internal/asciiplot"
	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/discovery"
	"presence/internal/core/protocol"
	"presence/internal/core/sapp"
	"presence/internal/experiments"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/metrics"
	"presence/internal/obs"
	"presence/internal/scenario"
	"presence/internal/simrun"
	"presence/internal/stats"
)

// Version of the library.
const Version = "1.0.0"

// NodeID identifies a node (device or control point).
type NodeID = ident.NodeID

// Protocol selects SAPP, DCPP or the naive baseline.
type Protocol = protocol.Name

// The available protocols.
const (
	ProtocolSAPP  = protocol.SAPP
	ProtocolDCPP  = protocol.DCPP
	ProtocolNaive = protocol.Naive
)

// Simulation API (see internal/simrun for details).
type (
	// SimConfig assembles a simulated world.
	SimConfig = simrun.Config
	// World is a deterministic simulated deployment.
	World = simrun.World
	// CPHost is one simulated control point with its measurements.
	CPHost = simrun.CPHost
	// DeviceHost is the simulated device.
	DeviceHost = simrun.DeviceHost
	// ProcessingConfig models device computation time.
	ProcessingConfig = simrun.ProcessingConfig
	// DiscoveryConfig enables the UPnP-style announcement layer.
	DiscoveryConfig = simrun.DiscoveryConfig
	// AnnouncerConfig parameterises device announcements (max-age,
	// period).
	AnnouncerConfig = discovery.AnnouncerConfig
)

// Population models (see internal/simrun): install one with
// World.StartPopulation before Run.
type (
	// PopulationModel drives CP membership over simulated time.
	PopulationModel = simrun.PopulationModel
	// StaticPopulation joins a fixed set of CPs staggered over a spread.
	StaticPopulation = simrun.StaticPopulation
	// MassLeavePopulation is the paper's Fig. 4 dynamic.
	MassLeavePopulation = simrun.MassLeavePopulation
	// UniformChurn is the paper's Fig. 5 churn scenario.
	UniformChurn = simrun.UniformChurn
	// FlashCrowd models correlated join/leave bursts.
	FlashCrowd = simrun.FlashCrowd
	// MarkovSessions models per-CP exponential on/off sessions.
	MarkovSessions = simrun.MarkovSessions
	// HeavyTailLifetimes models Poisson arrivals with Pareto or
	// lognormal session lengths.
	HeavyTailLifetimes = simrun.HeavyTailLifetimes
	// DiurnalArrivals models sinusoid-modulated Poisson arrivals.
	DiurnalArrivals = simrun.DiurnalArrivals
)

// NewSimulation builds a simulated world: one device (of the configured
// protocol), no control points yet.
func NewSimulation(cfg SimConfig) (*World, error) {
	return simrun.NewWorld(cfg)
}

// DefaultUniformChurn returns the paper's churn parameters
// (population U{1..60}, redrawn at rate 0.05/s).
func DefaultUniformChurn() UniformChurn { return simrun.DefaultUniformChurn() }

// Scenario engine (see internal/scenario): declarative specs that
// compile into simulated worlds and round-trip through JSON.
type (
	// Scenario is a declarative scenario spec.
	Scenario = scenario.Spec
)

// Scenarios returns every registered scenario (deep copies).
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioByName returns a deep copy of a registered scenario.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.ByName(name) }

// LoadScenario reads and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// DecodeScenario parses and validates scenario JSON.
func DecodeScenario(b []byte) (*Scenario, error) { return scenario.Decode(b) }

// ResolveScenario returns the scenario for a registered name or a JSON
// file path.
func ResolveScenario(nameOrPath string) (*Scenario, error) { return scenario.Resolve(nameOrPath) }

// Protocol configuration (paper defaults via the Default* functions).
type (
	// RetransmitConfig is the probe cycle of Fig. 1 (TOF, TOS, 3
	// retransmissions).
	RetransmitConfig = core.RetransmitConfig
	// SAPPDeviceConfig parameterises a SAPP device (L_ideal, L_nom, Δ).
	SAPPDeviceConfig = sapp.DeviceConfig
	// SAPPCPConfig parameterises SAPP's adaptation rule (1).
	SAPPCPConfig = sapp.CPConfig
	// DCPPDeviceConfig parameterises a DCPP device (δ_min, d_min).
	DCPPDeviceConfig = dcpp.DeviceConfig
	// DCPPPolicyConfig parameterises the DCPP control point.
	DCPPPolicyConfig = dcpp.PolicyConfig
)

// DefaultRetransmit returns the paper's probe-cycle parameters.
func DefaultRetransmit() RetransmitConfig { return core.DefaultRetransmit() }

// DefaultSAPPDeviceConfig returns the paper's SAPP device parameters.
func DefaultSAPPDeviceConfig() SAPPDeviceConfig { return sapp.DefaultDeviceConfig() }

// DefaultSAPPCPConfig returns the paper's SAPP CP parameters.
func DefaultSAPPCPConfig() SAPPCPConfig { return sapp.DefaultCPConfig() }

// DefaultDCPPDeviceConfig returns the paper's DCPP parameters.
func DefaultDCPPDeviceConfig() DCPPDeviceConfig { return dcpp.DefaultDeviceConfig() }

// Presence events.
type (
	// Listener observes presence events (alive, lost, bye).
	Listener = core.Listener
	// CycleResult describes a successful probe cycle.
	CycleResult = core.CycleResult
	// NopListener ignores all events.
	NopListener = core.NopListener
)

// Experiment suite (the paper's tables and figures).
type (
	// Experiment is a registered reproduction unit.
	Experiment = experiments.Experiment
	// ExperimentOptions parameterise a run (seed, scale, output dir).
	ExperimentOptions = experiments.Options
	// ExperimentReport is an experiment's outcome.
	ExperimentReport = experiments.Report
)

// Experiment scales.
const (
	ScaleShort = experiments.ScaleShort
	ScalePaper = experiments.ScalePaper
)

// Experiments returns every registered experiment in presentation
// order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by id (e.g. "fig5-dcpp-churn").
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentReport, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return e.Run(opts)
}

// UnknownExperimentError reports a RunExperiment id that is not
// registered.
type UnknownExperimentError struct {
	ID string
}

func (e *UnknownExperimentError) Error() string {
	return "presence: unknown experiment " + e.ID
}

// Measurement and presentation helpers.
type (
	// TimeSeries records (time, value) samples (per-CP frequency
	// traces, device-load bins).
	TimeSeries = stats.TimeSeries
	// SummaryStats is an online mean/variance accumulator.
	SummaryStats = stats.Welford
	// PlotOptions configure RenderPlot.
	PlotOptions = asciiplot.Options
)

// JainIndex returns Jain's fairness index of the given allocations
// (1 = perfectly fair).
func JainIndex(xs []float64) float64 { return stats.JainIndex(xs) }

// RenderPlot draws time series as an ASCII scatter plot for terminal
// output.
func RenderPlot(series []*TimeSeries, opts PlotOptions) string {
	return asciiplot.Render(series, opts)
}

// Fleet runtime (see internal/fleet): the real-network runtime. A
// 1-shard fleet hosting one device or one control point is a single
// node on a UDP socket (cmd/probed, cmd/probecp, examples/udp-live);
// the same runtime hosts hundreds of thousands of control points per
// process — N shards, each one UDP socket, one event-loop goroutine and one
// hierarchical timer wheel; no per-node goroutines or timers. Shard
// I/O is batched and allocation-free: on Linux whole bursts move per
// recvmmsg/sendmmsg syscall, elsewhere (and with
// FleetConfig.ForceSingleDatagram) a portable one-datagram-per-call
// fallback carries the same traffic byte for byte.
type (
	// FleetConfig assembles a Fleet (shards, listen address, transport
	// batch) and embeds the startup FleetRuntimeConfig.
	FleetConfig = fleet.Config
	// Fleet hosts protocol engines across shards.
	Fleet = fleet.Fleet
	// FleetCPConfig configures a fleet-hosted control point.
	FleetCPConfig = fleet.CPConfig
	// FleetControlPoint is the handle to a fleet-hosted control point.
	FleetControlPoint = fleet.ControlPoint
	// FleetDevice is the handle to a fleet-hosted device.
	FleetDevice = fleet.Device
	// FleetCounters tracks one shard's activity.
	FleetCounters = fleet.Counters
	// FleetSnapshot aggregates per-shard counters.
	FleetSnapshot = fleet.Snapshot
	// FleetRuntimeConfig carries every fleet setting changeable while
	// the fleet runs (Fleet.SetConfig / Fleet.ConfigSnapshot), and is
	// embedded in FleetConfig as its startup value: harden toggles,
	// replay/pending windows, per-device probe budgets, the
	// admin-command admission bound and wire v2 frame authentication
	// (a non-empty AuthKey CMAC-tags every frame, AuthRequire refuses
	// v1; pushing a new AuthKey rotates live, with a dual-key grace).
	FleetRuntimeConfig = fleet.RuntimeConfig
	// FleetVerdictEvent is one terminal presence verdict, delivered to
	// FleetConfig.Verdicts.
	FleetVerdictEvent = fleet.VerdictEvent
	// FleetVerdictKind names a verdict: lost or bye.
	FleetVerdictKind = fleet.VerdictKind
	// FleetTransport opens one packet conn per shard (custom networks).
	FleetTransport = fleet.Transport
	// FleetPacketConn is the single-datagram transport contract.
	FleetPacketConn = fleet.PacketConn
	// FleetBatchPacketConn is the batched transport contract: a
	// PacketConn that moves []FleetDatagram per call; the fleet uses it
	// automatically when a transport provides it.
	FleetBatchPacketConn = fleet.BatchPacketConn
	// FleetDatagram is one packet of a batched transport call.
	FleetDatagram = fleet.Datagram
)

// The verdict kinds (FleetVerdictEvent.Kind).
const (
	FleetVerdictLost = fleet.VerdictLost
	FleetVerdictBye  = fleet.VerdictBye
)

// NewFleet builds a sharded presence server. Call Start, then
// AddControlPoint/AddDevice; Close tears it down. A running fleet is
// mutable throughout: AddControlPoint/RemoveControlPoint and
// AddDevice/RemoveDevice churn membership live, DrainShard/Rebalance
// migrate control points between shards without losing pending probe
// cycles, and SetConfig pushes versioned runtime-configuration changes
// — all executed on the owning shard's event loop, leaving the packet
// hot path lock-free and allocation-free.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewDCPPDeviceBuilder returns a builder for a DCPP device engine,
// usable with Fleet.AddDevice.
func NewDCPPDeviceBuilder(id NodeID, dev DCPPDeviceConfig) fleet.DeviceBuilder {
	return func(env core.Env) (core.Device, error) { return dcpp.NewDevice(id, env, dev) }
}

// NewSAPPDeviceBuilder returns a builder for a SAPP device engine.
func NewSAPPDeviceBuilder(id NodeID, dev SAPPDeviceConfig) fleet.DeviceBuilder {
	return func(env core.Env) (core.Device, error) { return sapp.NewDevice(id, env, dev) }
}

// NewFleetDCPPControlPoint hosts a DCPP control point in a started
// fleet. The listener may be nil.
func NewFleetDCPPControlPoint(f *Fleet, cfg FleetCPConfig, policy DCPPPolicyConfig, lst Listener) (*FleetControlPoint, error) {
	p, err := dcpp.NewPolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg.Policy = p
	cfg.Listener = lst
	return f.AddControlPoint(cfg)
}

// NewFleetSAPPControlPoint hosts a SAPP control point in a started
// fleet. The listener may be nil.
func NewFleetSAPPControlPoint(f *Fleet, cfg FleetCPConfig, policy SAPPCPConfig, lst Listener) (*FleetControlPoint, error) {
	p, err := sapp.NewPolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg.Policy = p
	cfg.Listener = lst
	return f.AddControlPoint(cfg)
}

// LoadFleetAuthKey reads a frame-authentication master key from a
// keyfile (surrounding whitespace trimmed), for FleetRuntimeConfig.AuthKey
// at startup or in a rotation push.
func LoadFleetAuthKey(path string) ([]byte, error) { return fleet.LoadAuthKey(path) }

// Telemetry plane (see internal/metrics, internal/obs and the fleet's
// Histograms/FlightSnapshot methods): allocation-free per-shard
// histograms on the probe hot path, a Prometheus /metrics + /statusz
// status server, and a bounded flight recorder of probe-lifecycle
// events.
type (
	// FleetHistograms is the fleet's merged latency/fill histogram
	// snapshot (probe RTT, detection latency, handoff latency, batch
	// fill, timer-cascade duration).
	FleetHistograms = fleet.Histograms
	// HistogramSnapshot is one immutable log₂-bucket histogram snapshot.
	HistogramSnapshot = metrics.HistogramSnapshot
	// StatusConfig wires a fleet (and optionally a memnet network) into
	// a status server.
	StatusConfig = obs.Config
	// StatusServer serves /metrics, /healthz, /statusz, /debug/flight
	// and the pprof handlers for one fleet.
	StatusServer = obs.Server
	// StatusSnapshot is the /statusz document.
	StatusSnapshot = obs.Status
)

// NewStatusServer builds the status plane for a fleet. Call Start to
// serve it, or mount Handler on an existing mux.
func NewStatusServer(cfg StatusConfig) (*StatusServer, error) { return obs.New(cfg) }
