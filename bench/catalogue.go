package main

// The catalogue is the single declaration of what this benchmark runs
// and reports. BENCHMARK.json at the repository root repeats it for the
// pipeline (bench_test.go holds the two equal); README.md explains it.

// metricDef declares one reported metric. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// workloadDef declares one workload: its name, the one-line reason it
// exists, and the function that runs it once.
type workloadDef struct {
	Name string
	Why  string
	run  func(params) (*result, error)
}

var workloads = []workloadDef{
	{"hot-plain", "bare forwarding at the smallest packet on one goroutine, no sockets: the only place a 10 ns change to wire, core, demux or the counters shows", runHotPlain},
	{"hot-auth", "the same path with every frame HMAC-signed and verified: auth changes show here and must not move hot-plain", runHotAuth},
	{"udp-steady", "5000 CPs x 1 Hz over kernel loopback with paper timeouts, then a device crash: loop wake-ups, timers and flush cadence set the numbers, per-packet cost does not", runUDPSteady},
	{"udp-busy", "5000 CPs x 5 Hz over kernel loopback: bursts fill batches, syscalls and kernel time dominate, so transport and batching changes show here and not on hot-*", runUDPBusy},
	{"udp-churn", "udp-steady traffic on 2 CP shards beside 100 Remove+Add pairs/s, a drain, a rebalance and 20 Hz scrapes: a faster packet path that makes callers or scrapers pay shows here", runUDPChurn},
	{"conf-replay", "conformance replays over memnet with DCPP, loss, reordering and the admin HTTP plane: the traffic that leaves the fast path, and the wall-clock replay a virtual clock would remove", runConfReplay},
	{"sim-sweep", "paper-scale simulator scenarios round-robin on one goroutine: des, simnet, simrun and core do all the work and fleet and wire none", runSimSweep},
}

// endToEnd lists the metrics every workload reports from an untraced
// run. The pipeline has each workload print each of them, so only the
// quantities defined on all seven workloads are here; the workload-
// specific ones (round-trip time, detection against the budget, bytes
// per control point) are in perLayer under the names README.md gives.
var endToEnd = []metricDef{
	{"ns_per_op", "ns", "lower", 0.10},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists what a traced run reports. A metric reads 0 on a
// workload that does not exercise its layer.
var perLayer = []metricDef{
	// wire: codec and HMAC tags, timed call by call on the frames hot-* carries.
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.sign_ns", "ns", "lower", 0},
	{"wire.verify_ns", "ns", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},
	// core: the protocol engines against a stub Env.
	{"core.prober_cycle_ns", "ns", "lower", 0},
	{"core.device_probe_ns", "ns", "lower", 0},
	{"core.dcpp_device_probe_ns", "ns", "lower", 0},
	{"core.policy_ns", "ns", "lower", 0},
	// fleet, hot path ledger.
	{"fleet.residual_ns", "ns", "lower", 0},
	{"fleet.residual_auth_ns", "ns", "lower", 0},
	{"fleet.telemetry_ns", "ns", "lower", 0},
	{"fleet.single_ns_per_pkt", "ns", "lower", 0},
	{"fleet.hot_allocs_per_step", "count", "lower", 0},
	{"metrics.observe_ns", "ns", "lower", 0},
	{"trace.record_ns", "ns", "lower", 0},
	// fleet over kernel loopback.
	{"fleet.user_ns_per_pkt", "ns", "lower", 0},
	{"fleet.sys_ns_per_pkt", "ns", "lower", 0},
	{"fleet.batch_fill_in", "count", "higher", 0},
	{"fleet.batch_fill_out", "count", "higher", 0},
	{"fleet.syscalls_per_pkt", "ratio", "lower", 0},
	{"fleet.cpu_util", "ratio", "lower", 0},
	{"fleet.retransmit_share", "ratio", "lower", 0},
	{"fleet.late_reply_share", "ratio", "lower", 0},
	{"fleet.rtt_p50_us", "us", "lower", 0},
	{"fleet.rtt_p99_us", "us", "lower", 0},
	{"fleet.rtt_p999_us", "us", "lower", 0},
	{"fleet.hist_rtt_p50_us", "us", "lower", 0},
	{"fleet.cascade_p99_us", "us", "lower", 0},
	{"fleet.timer_late_p50_us", "us", "lower", 0},
	{"fleet.timer_late_p99_us", "us", "lower", 0},
	{"fleet.detect_over_budget", "ratio", "lower", 0},
	{"fleet.detect_excess_p50_ms", "ms", "lower", 0},
	{"fleet.detect_wall_p50_ms", "ms", "lower", 0},
	{"fleet.bytes_per_cp", "B", "lower", 0},
	{"fleet.join_cps_per_s", "1/s", "higher", 0},
	{"fleet.add_cp_us", "us", "lower", 0},
	{"fleet.heap_inuse_mb", "MB", "lower", 0},
	{"fleet.goroutines", "count", "lower", 0},
	{"fleet.wheel_depth", "count", "lower", 0},
	{"fleet.pending_probes", "count", "lower", 0},
	{"fleet.admin_pair_p50_us", "us", "lower", 0},
	{"fleet.admin_pair_p99_us", "us", "lower", 0},
	{"fleet.admin_late_p50_us", "us", "lower", 0},
	{"fleet.drain_ms", "ms", "lower", 0},
	{"fleet.rebalance_ms", "ms", "lower", 0},
	{"fleet.migrations", "count", "lower", 0},
	{"fleet.snapshot_us", "us", "lower", 0},
	{"fleet.histograms_us", "us", "lower", 0},
	{"obs.metrics_scrape_us", "us", "lower", 0},
	{"obs.status_us", "us", "lower", 0},
	// spans recorded by the benchmark's own wrappers (traced runs only).
	{"span.cycle_us", "us", "lower", 0},
	{"span.device_on_probe_ns", "ns", "lower", 0},
	{"span.policy_next_delay_ns", "ns", "lower", 0},
	{"span.listener_ns", "ns", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	// memnet, conformance.
	{"memnet.write_read_ns", "ns", "lower", 0},
	{"memnet.add_cp_ms", "ms", "lower", 0},
	{"conformance.replay_s", "s", "lower", 0},
	{"conformance.detect_gap_ms", "ms", "lower", 0},
	{"conformance.load_gap", "1/s", "lower", 0},
	{"conformance.tapped_packets", "count", "higher", 0},
	{"conformance.out_of_band", "count", "lower", 0},
	{"conformance.after_removal", "count", "lower", 0},
	// simulator stack.
	{"des.event_ns", "ns", "lower", 0},
	{"des.alarm_set_ns", "ns", "lower", 0},
	{"simnet.send_deliver_ns", "ns", "lower", 0},
	{"simrun.events_per_s", "1/s", "higher", 0},
	{"simrun.allocs_per_kevent", "count", "lower", 0},
	{"simrun.world_build_us", "us", "lower", 0},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
