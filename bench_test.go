// Benchmarks regenerating each table and figure of the paper's
// evaluation (one benchmark per artefact, short horizons so `go test
// -bench` stays tractable; use cmd/probebench for paper-scale runs),
// plus the simulator's throughput benchmark and allocation gate.
// Custom metrics attach the reproduced quantities to the benchmark
// output, e.g. fig5's load_mean ≈ 9.7 probes/s.
package presence_test

import (
	"math"
	"testing"

	"presence"
)

// runExperimentBench runs one experiment per iteration and reports the
// selected metrics through the benchmark framework.
func runExperimentBench(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last *presence.ExperimentReport
	for i := 0; i < b.N; i++ {
		rep, err := presence.RunExperiment(id, presence.ExperimentOptions{
			Seed:  2005 + uint64(i),
			Scale: presence.ScaleShort,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	for _, name := range metrics {
		if m, ok := last.Metric(name); ok && !math.IsNaN(m.Got) {
			b.ReportMetric(m.Got, name)
		}
	}
}

// BenchmarkTabSAPPSteadyState reproduces the Section 3 steady-state
// numbers: device load ≈ L_nom, tiny buffer occupancy, bimodal per-CP
// delays.
func BenchmarkTabSAPPSteadyState(b *testing.B) {
	runExperimentBench(b, "tab-sapp-steady",
		"device_load_mean", "buffer_mean_occupancy", "cp_delay_p10", "cp_delay_p90")
}

// BenchmarkFig2SAPP3CPs reproduces Figure 2: three SAPP CPs, one
// starving.
func BenchmarkFig2SAPP3CPs(b *testing.B) {
	runExperimentBench(b, "fig2-sapp-3cps", "tail_freq_min", "tail_freq_max", "fairness_jain")
}

// BenchmarkFig3SAPPZoom reproduces Figure 3: the one-minute zoom showing
// oscillating probe frequencies.
func BenchmarkFig3SAPPZoom(b *testing.B) {
	runExperimentBench(b, "fig3-sapp-zoom", "window_cps_active", "max_freq_amplitude")
}

// BenchmarkFig4SAPPMassLeave reproduces Figure 4: 18 of 20 CPs leave;
// the survivors stay unbalanced.
func BenchmarkFig4SAPPMassLeave(b *testing.B) {
	runExperimentBench(b, "fig4-sapp-leave", "survivor_freq_ratio", "post_leave_load")
}

// BenchmarkFig5DCPPChurn reproduces Figure 5: device load under
// worst-case churn (paper: mean 9.7, variance 20.0).
func BenchmarkFig5DCPPChurn(b *testing.B) {
	runExperimentBench(b, "fig5-dcpp-churn", "load_mean", "load_var", "load_peak")
}

// BenchmarkTabDCPPSteadyState reproduces the Section 5 batch-means
// steady-state estimate.
func BenchmarkTabDCPPSteadyState(b *testing.B) {
	runExperimentBench(b, "tab-dcpp-steady", "load_mean", "load_var", "ci_halfwidth")
}

// BenchmarkTabDCPPStatic reproduces the Section 5 static-population
// claim: load = min(k·f_max, L_nom).
func BenchmarkTabDCPPStatic(b *testing.B) {
	runExperimentBench(b, "tab-dcpp-static", "load_k1", "load_k5", "load_k20", "load_k60")
}

// BenchmarkExtFairness quantifies the SAPP-vs-DCPP fairness gap with
// Jain's index.
func BenchmarkExtFairness(b *testing.B) {
	runExperimentBench(b, "ext-fairness", "jain_sapp", "jain_dcpp", "jain_naive")
}

// BenchmarkExtDetection measures silent-crash detection latency vs
// population size.
func BenchmarkExtDetection(b *testing.B) {
	runExperimentBench(b, "ext-detect", "dcpp_k1_mean", "dcpp_k20_mean", "dcpp_k40_max")
}

// BenchmarkExtDCPPLoss exercises the Section 5 packet-loss prediction.
func BenchmarkExtDCPPLoss(b *testing.B) {
	runExperimentBench(b, "ext-dcpp-loss",
		"load_mean_no_loss", "load_mean_bernoulli_5pct", "load_p99_no_loss", "load_p99_bernoulli_5pct")
}

// BenchmarkExtOverlay measures leave-notice dissemination over the
// last-two-probers overlay.
func BenchmarkExtOverlay(b *testing.B) {
	runExperimentBench(b, "ext-overlay", "coverage", "informed_max", "own_detection_max")
}

// BenchmarkExtSAPPAdaptiveDelta exercises the device-side Δ-doubling
// throttle.
func BenchmarkExtSAPPAdaptiveDelta(b *testing.B) {
	runExperimentBench(b, "ext-sapp-adelta", "load_fixed_delta", "load_adaptive_delta")
}

// BenchmarkExtNaiveLoad shows the baseline's linear overload in k.
func BenchmarkExtNaiveLoad(b *testing.B) {
	runExperimentBench(b, "ext-naive-load", "load_k1", "load_k10", "load_k80")
}

// BenchmarkSimulationThroughput measures raw simulator speed: simulated
// seconds per wall second for the Fig. 5 scenario.
func BenchmarkSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runFig5(b, uint64(i))
		b.ReportMetric(float64(w.Sim().Executed()), "events/op")
	}
}

// runFig5 runs the Fig. 5 churn scenario under DCPP for 60 simulated
// seconds with one seed.
func runFig5(tb testing.TB, seed uint64) *presence.World {
	w, err := presence.NewSimulation(presence.SimConfig{
		Protocol: presence.ProtocolDCPP,
		Seed:     seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.StartChurn(presence.DefaultUniformChurn()); err != nil {
		tb.Fatal(err)
	}
	w.Run(60 * 1e9)
	return w
}

// simAllocBudget bounds the mean allocations of one
// BenchmarkSimulationThroughput op: 10 % above the 1 655 measured over
// seeds 1–32 when the bound was set. Allocation counts do not depend on
// the machine, so unlike ns/op this is a gate every box can apply.
const simAllocBudget = 1820

// TestSimulationAllocBudget is the simulator's allocation gate: the
// Fig. 5 churn scenario, 60 simulated seconds a run, one seed per run.
func TestSimulationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	var seed uint64
	allocs := testing.AllocsPerRun(32, func() {
		runFig5(t, seed)
		seed++
	})
	if allocs > simAllocBudget {
		t.Fatalf("simulator allocates %.0f per op, budget %d", allocs, simAllocBudget)
	}
}

// BenchmarkExtDiscovery measures announcement-expiry vs probe-based
// detection of a silent crash.
func BenchmarkExtDiscovery(b *testing.B) {
	runExperimentBench(b, "ext-discovery", "expiry_detect_mean", "probe_detect_mean", "speedup")
}

// BenchmarkExtSeeds runs the independent-replications estimate of the
// Fig. 5 headline numbers.
func BenchmarkExtSeeds(b *testing.B) {
	runExperimentBench(b, "ext-seeds", "replication_mean_of_means", "replication_mean_of_vars")
}
