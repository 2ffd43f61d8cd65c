package experiments

import (
	"fmt"

	"presence/internal/core/protocol"
	"presence/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "fig5-dcpp-churn",
		Title:    "DCPP device load and #CPs under worst-case churn over 30 minutes",
		Artefact: "Figure 5",
		Run:      runFig5,
	})
	register(Experiment{
		ID:       "tab-dcpp-steady",
		Title:    "DCPP steady-state load under churn: mean 9.7 probes/s, variance 20.0",
		Artefact: "Section 5, steady-state numbers (in-text table)",
		Run:      runTabDCPPSteady,
	})
	register(Experiment{
		ID:       "tab-dcpp-static",
		Title:    "DCPP static populations: load = min(k·f_max, L_nom), near-equal per-CP frequencies",
		Artefact: "Section 5, deterministic-schedule claim",
		Run:      runTabDCPPStatic,
	})
}

func runFig5(opts Options) (*Report, error) {
	opts.applyDefaults()
	horizon := sec(3000)
	if opts.Scale == ScaleShort {
		horizon = sec(600)
	}
	w, err := namedSpec("fig5-uniform-churn", horizon).World(opts.Seed)
	if err != nil {
		return nil, err
	}
	w.Run(horizon)

	rep := &Report{
		ID:    "fig5-dcpp-churn",
		Title: "DCPP load and #CPs under churn (U{1..60} redrawn at rate 0.05)",
		PaperClaim: "mean load 9.7 probes/s, variance 20.0 (σ ≈ ±4.5); load peaks when many CPs " +
			"join simultaneously but falls off very quickly towards L_nom = 10",
	}
	rep.Series = append(rep.Series, w.DeviceLoad().Series(), w.CPCountSeries())
	load := w.DeviceLoad().Stats()
	rep.AddMetric("load_mean", load.Mean(), 9.7, "probes/s", "paper: 9.7")
	rep.AddMetric("load_var", load.Variance(), 20.0, "(probes/s)^2", "paper: 20.0")
	rep.AddMetric("load_stddev", load.StdDev(), 4.5, "probes/s", "paper: ≈±4.5")
	rep.AddMetric("load_peak", load.Max(), unspecified(), "probes/s", "paper's plot peaks near the join burst size")
	cpStats := w.CPCountStats()
	rep.AddMetric("mean_active_cps", cpStats.Mean(), 30.5, "CPs", "E[U{1..60}] = 30.5")

	// "The probability of exceeding the nominal probe load is low":
	// fraction of 1 s bins above L_nom.
	over := 0
	pts := w.DeviceLoad().Series().Points()
	for _, p := range pts {
		if p.V > 10 {
			over++
		}
	}
	frac := float64(over) / float64(len(pts))
	rep.AddMetric("frac_bins_over_nominal", frac, unspecified(), "", "paper: \"statistically low\"")
	rep.AddFinding("%d of %d one-second bins exceed L_nom; exceedances cluster at join bursts and decay immediately", over, len(pts))
	return rep, nil
}

func runTabDCPPSteady(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, chunk, maxHorizon := sec(500), sec(2000), sec(200000)
	if opts.Scale == ScaleShort {
		warmup, chunk, maxHorizon = sec(100), sec(500), sec(5000)
	}
	w, err := namedSpec("fig5-uniform-churn", maxHorizon).World(opts.Seed)
	if err != nil {
		return nil, err
	}
	w.Run(warmup)
	w.ResetMeasurements()
	bm, err := stats.NewBatchMeans(stats.BatchMeansConfig{
		BatchSize: 200, Level: 0.95, RelWidth: 0.1,
	})
	if err != nil {
		return nil, err
	}
	consumed := 0
	for w.Sim().Now() < maxHorizon && !bm.Converged() {
		w.Run(w.Sim().Now() + chunk)
		pts := w.DeviceLoad().Series().Points()
		for ; consumed < len(pts); consumed++ {
			bm.Add(pts[consumed].V)
		}
	}
	rep := &Report{
		ID:         "tab-dcpp-steady",
		Title:      "DCPP steady state under churn (batch means, CI 0.1 @ 95%)",
		PaperClaim: "the mean load of a device in steady-state is 9.7 probes/s and the variance 20.0, yielding a standard deviation of ≈ ±4.5",
	}
	res := bm.Result()
	load := w.DeviceLoad().Stats()
	rep.AddMetric("load_mean", res.Mean, 9.7, "probes/s", fmt.Sprintf("batch means: %s", res))
	rep.AddMetric("load_var", load.Variance(), 20.0, "(probes/s)^2", "")
	rep.AddMetric("load_stddev", load.StdDev(), 4.5, "probes/s", "")
	rep.AddMetric("batches", float64(res.Batches), unspecified(), "", "100·200 s batches")
	rep.AddMetric("ci_halfwidth", res.HalfWidth, unspecified(), "probes/s", "target rel. width 0.1")
	// Warmup adequacy diagnostic: the MSER-5 truncation point of the
	// post-warmup load bins should be tiny relative to the run, i.e. the
	// fixed warmup already removed the transient.
	var bins []float64
	for _, p := range w.DeviceLoad().Series().Points() {
		bins = append(bins, p.V)
	}
	mser := stats.MSERBatched(bins, 5)
	rep.AddMetric("mser_residual_warmup", float64(mser), unspecified(), "bins",
		"MSER-5 truncation after the fixed warmup; small = warmup adequate")
	// Sanity: E[min(2k, 10)] for k ~ U{1..60} = (2+4+6+8)/60 + 10·56/60 = 9.67.
	rep.AddFinding("analytic steady-state prediction E[min(k·f_max, L_nom)] = 9.67 probes/s — the paper's 9.7 and this measurement should both straddle it")
	return rep, nil
}

func runTabDCPPStatic(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, measure := sec(60), sec(600)
	if opts.Scale == ScaleShort {
		warmup, measure = sec(30), sec(120)
	}
	rep := &Report{
		ID:    "tab-dcpp-static",
		Title: "DCPP static population sweep",
		PaperClaim: "once a situation is reached where the number of probing CPs does not change, " +
			"the device has a probe load of L_nom and the probe frequency is nearly the same for all CPs",
	}
	ks := []int{1, 2, 5, 10, 20, 40, 60}
	type outcome struct {
		load, jain float64
	}
	// One independent world per population size: sweep on the worker
	// pool, report in k order.
	results, err := Replications(len(ks), func(i int) (outcome, error) {
		k := ks[i]
		w, err := staticSpec(protocol.DCPP, k, sec(5), warmup+measure).World(opts.Seed + uint64(k))
		if err != nil {
			return outcome{}, err
		}
		w.Run(warmup)
		w.ResetMeasurements()
		w.Run(warmup + measure)
		load := w.DeviceLoad().Stats()
		return outcome{
			load: load.Mean(),
			jain: stats.JainIndex(w.CPFrequencies()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range results {
		k := ks[i]
		// Expected: min(k·f_max, L_nom) with f_max = 2, L_nom = 10.
		expect := float64(k) * 2
		if expect > 10 {
			expect = 10
		}
		rep.AddMetric(fmt.Sprintf("load_k%d", k), out.load, expect, "probes/s",
			fmt.Sprintf("min(k·f_max, L_nom); Jain %.4f", out.jain))
		if out.jain < 0.99 {
			rep.AddFinding("k=%d: fairness J=%.4f below 0.99 — unexpected for DCPP", k, out.jain)
		}
	}
	rep.AddFinding("crossover at k = L_nom/f_max = 5 CPs: below it the device is CP-limited, above it schedule-limited")
	return rep, nil
}
