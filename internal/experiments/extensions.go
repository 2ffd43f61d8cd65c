package experiments

import (
	"fmt"
	"time"

	"presence/internal/core"
	"presence/internal/core/protocol"
	"presence/internal/core/sapp"
	"presence/internal/scenario"
	"presence/internal/simrun"
	"presence/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "ext-fairness",
		Title:    "Fairness comparison at k = 20: SAPP vs DCPP vs naive (Jain index)",
		Artefact: "extension of Sections 3/5 (quantifies the paper's unfairness finding)",
		Run:      runExtFairness,
	})
	register(Experiment{
		ID:       "ext-detect",
		Title:    "Detection latency of a silent device crash vs population size",
		Artefact: "extension (the paper's \"absence should be detected quickly\" requirement)",
		Run:      runExtDetect,
	})
	register(Experiment{
		ID:       "ext-dcpp-loss",
		Title:    "DCPP churn under packet loss: join spikes spread wider",
		Artefact: "extension of Section 5's loss prediction",
		Run:      runExtDCPPLoss,
	})
	register(Experiment{
		ID:       "ext-overlay",
		Title:    "Leave dissemination over the last-two-probers overlay",
		Artefact: "extension (the protocol phase the paper describes but does not analyse)",
		Run:      runExtOverlay,
	})
	register(Experiment{
		ID:       "ext-sapp-adelta",
		Title:    "SAPP device-side adaptive Δ throttles the probe load",
		Artefact: "extension of Section 2's \"double its value of Δ\" remark",
		Run:      runExtSAPPAdaptiveDelta,
	})
	register(Experiment{
		ID:       "ext-naive-load",
		Title:    "Naive fixed-rate probing: load scales linearly with k (over/underload)",
		Artefact: "extension of Section 1's motivation",
		Run:      runExtNaiveLoad,
	})
}

func runExtFairness(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, measure := sec(2000), sec(4000)
	if opts.Scale == ScaleShort {
		warmup, measure = sec(300), sec(600)
	}
	rep := &Report{
		ID:         "ext-fairness",
		Title:      "Fairness at k = 20 CPs",
		PaperClaim: "SAPP treats CPs unfairly (some starve, some probe fast); DCPP gives nearly the same frequency to all CPs",
	}
	protocols := []protocol.Name{protocol.SAPP, protocol.DCPP, protocol.Naive}
	type outcome struct {
		jain, lo, hi, load float64
	}
	results, err := Replications(len(protocols), func(i int) (outcome, error) {
		w, err := staticSpec(protocols[i], 20, sec(10), warmup+measure).World(opts.Seed)
		if err != nil {
			return outcome{}, err
		}
		w.Run(warmup)
		w.ResetMeasurements()
		w.Run(warmup + measure)
		freqs := w.CPFrequencies()
		lo, hi := minMax(freqs)
		load := w.DeviceLoad().Stats()
		return outcome{
			jain: stats.JainIndex(freqs),
			lo:   lo,
			hi:   hi,
			load: load.Mean(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range results {
		proto := protocols[i]
		rep.AddMetric(fmt.Sprintf("jain_%s", proto), out.jain, unspecified(), "",
			fmt.Sprintf("freq range [%.3g, %.3g] /s", out.lo, out.hi))
		rep.AddMetric(fmt.Sprintf("load_%s", proto), out.load, unspecified(), "probes/s", "")
	}
	rep.AddFinding("expected ordering: J(DCPP) ≈ J(naive) ≈ 1 ≫ J(SAPP); naive holds fairness only by ignoring the device's load limit")
	return rep, nil
}

func runExtDetect(opts Options) (*Report, error) {
	opts.applyDefaults()
	settle := sec(120)
	if opts.Scale == ScaleShort {
		settle = sec(60)
	}
	rep := &Report{
		ID:    "ext-detect",
		Title: "Silent-crash detection latency vs k",
		PaperClaim: "absence of nodes should be detected quickly (order of one second); for DCPP the " +
			"schedule stretches with k, so worst-case latency grows as k·δ_min + TOF + 3·TOS",
	}
	retrans := core.DefaultRetransmit()
	failTail := retrans.WorstCaseDetection()
	type job struct {
		proto protocol.Name
		k     int
	}
	var jobs []job
	for _, proto := range []protocol.Name{protocol.DCPP, protocol.SAPP} {
		for _, k := range []int{1, 5, 10, 20, 40} {
			jobs = append(jobs, job{proto, k})
		}
	}
	type outcome struct {
		lat     stats.Welford
		missing int
	}
	// Each (protocol, population) cell is an independent world; run the
	// sweep on the worker pool and assemble the report in job order.
	results, err := Replications(len(jobs), func(i int) (outcome, error) {
		j := jobs[i]
		w, err := staticSpec(j.proto, j.k, sec(5), settle+sec(25)).World(opts.Seed + uint64(j.k))
		if err != nil {
			return outcome{}, err
		}
		w.Run(settle)
		killAt := w.KillDevice()
		// Allow the longest plausible wait (SAPP δ_max = 10 s) plus
		// the failed cycle.
		w.Run(killAt + sec(25))
		var out outcome
		for _, h := range w.ActiveCPs() {
			if !h.Lost {
				out.missing++
				continue
			}
			out.lat.Add((h.LostAt - killAt).Seconds())
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range results {
		proto, k, lat := jobs[i].proto, jobs[i].k, out.lat
		if out.missing > 0 {
			rep.AddFinding("%s k=%d: %d CPs had not detected within 25 s", proto, k, out.missing)
		}
		var bound float64
		if proto == protocol.DCPP {
			// Worst case: the CP just received a wait of
			// max(d_min, k·δ_min), then needs a full failed cycle.
			wait := 0.5
			if kd := float64(k) * 0.1; kd > wait {
				wait = kd
			}
			bound = wait + failTail.Seconds()
		}
		note := ""
		if bound > 0 {
			note = fmt.Sprintf("worst-case bound %.3g s", bound)
			if lat.Max() > bound+0.1 {
				rep.AddFinding("%s k=%d: max latency %.3g s exceeds bound %.3g s", proto, k, lat.Max(), bound)
			}
		}
		rep.AddMetric(fmt.Sprintf("%s_k%d_mean", proto, k), lat.Mean(), unspecified(), "s", note)
		rep.AddMetric(fmt.Sprintf("%s_k%d_max", proto, k), lat.Max(), unspecified(), "s", "")
	}
	rep.AddFinding("DCPP trades detection latency for load control: with k CPs a dead device is noticed within ≈ k·δ_min + %v", failTail)
	return rep, nil
}

func runExtDCPPLoss(opts Options) (*Report, error) {
	opts.applyDefaults()
	horizon := sec(3000)
	if opts.Scale == ScaleShort {
		horizon = sec(600)
	}
	rep := &Report{
		ID:    "ext-dcpp-loss",
		Title: "DCPP churn with packet loss",
		PaperClaim: "in case of packet losses, which will occur in bursts due to the limited capacity of " +
			"devices, the load caused by new CPs will spread better over time ... the peaks will be a bit wider",
	}
	p05 := 0.05
	scenarios := []struct {
		name string
		loss *scenario.Loss
	}{
		{"no_loss", nil},
		{"bernoulli_5pct", &scenario.Loss{Bernoulli: &p05}},
		{"bursty", &scenario.Loss{GilbertElliott: &scenario.GilbertElliott{
			GoodToBad: 0.02, BadToGood: 0.2, LossGood: 0.01, LossBad: 0.5,
		}}},
	}
	type outcome struct {
		mean, p99, peak       float64
		failures, retransmits uint64
	}
	results, err := Replications(len(scenarios), func(i int) (outcome, error) {
		spec := namedSpec("fig5-uniform-churn", horizon)
		if scenarios[i].loss != nil {
			spec.Net = &scenario.Net{Loss: scenarios[i].loss}
		}
		w, err := spec.World(opts.Seed)
		if err != nil {
			return outcome{}, err
		}
		w.Run(horizon)
		load := w.DeviceLoad().Stats()
		pts := w.DeviceLoad().Series().Points()
		var vals []float64
		for _, p := range pts {
			vals = append(vals, p.V)
		}
		qs, err := stats.Quantiles(vals, 0.99)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{mean: load.Mean(), p99: qs[0], peak: load.Max()}
		for _, h := range w.AllCPs() {
			st := h.Prober.Stats()
			out.retransmits += st.Retransmits
			out.failures += st.CyclesFailed
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range results {
		name := scenarios[i].name
		rep.AddMetric(fmt.Sprintf("load_mean_%s", name), out.mean, unspecified(), "probes/s", "")
		rep.AddMetric(fmt.Sprintf("load_p99_%s", name), out.p99, unspecified(), "probes/s",
			"lower p99 with loss = spikes spread wider")
		rep.AddMetric(fmt.Sprintf("load_peak_%s", name), out.peak, unspecified(), "probes/s", "")
		rep.AddMetric(fmt.Sprintf("false_losses_%s", name), float64(out.failures), unspecified(), "cycles",
			"cycles whose 4 probes all vanished (false absence detections)")
		rep.AddMetric(fmt.Sprintf("retransmits_%s", name), float64(out.retransmits), unspecified(), "probes", "")
	}
	rep.AddFinding("retransmissions delay some joiners' first successful cycle, so join bursts smear across neighbouring bins, exactly as §5 predicts")
	return rep, nil
}

func runExtOverlay(opts Options) (*Report, error) {
	opts.applyDefaults()
	settle := sec(300)
	if opts.Scale == ScaleShort {
		settle = sec(120)
	}
	spec := staticSpec(protocol.SAPP, 20, sec(10), settle+sec(25))
	spec.Overlay = true
	w, err := spec.World(opts.Seed)
	if err != nil {
		return nil, err
	}
	w.Run(settle)
	killAt := w.KillDevice()
	w.Run(killAt + sec(25))

	rep := &Report{
		ID:    "ext-overlay",
		Title: "Leave dissemination across the last-two-probers overlay (k = 20, SAPP)",
		PaperClaim: "on detecting the absence of a device, the CP uses this overlay network to inform " +
			"all CPs about the leave of the device rapidly (phase not analysed in the paper)",
	}
	var detectLat, informLat stats.Welford
	informed, detected := 0, 0
	var notices uint64
	dev := w.Device().ID
	for _, h := range w.ActiveCPs() {
		if h.Lost {
			detected++
			detectLat.Add((h.LostAt - killAt).Seconds())
		}
		if at, ok := h.Overlay.Informed(dev); ok {
			informed++
			informLat.Add((at - killAt).Seconds())
		}
		notices += h.Overlay.NoticesSent()
	}
	n := len(w.ActiveCPs())
	rep.AddMetric("coverage", float64(informed)/float64(n), unspecified(), "", "fraction of CPs informed (detection or notice)")
	rep.AddMetric("own_detection_mean", detectLat.Mean(), unspecified(), "s", fmt.Sprintf("%d/%d CPs detected locally", detected, n))
	rep.AddMetric("own_detection_max", detectLat.Max(), unspecified(), "s", "slowest local detection (starved CPs wait δ_max)")
	rep.AddMetric("informed_mean", informLat.Mean(), unspecified(), "s", "overlay notice or local detection, whichever first")
	rep.AddMetric("informed_max", informLat.Max(), unspecified(), "s", "")
	rep.AddMetric("notices_sent", float64(notices), unspecified(), "msgs", "total LeaveNotice transmissions")
	if informLat.Max() < detectLat.Max() {
		rep.AddFinding("the overlay informs slow CPs before their own probe cycle would: max informed %.3g s < max local detection %.3g s",
			informLat.Max(), detectLat.Max())
	}
	return rep, nil
}

func runExtSAPPAdaptiveDelta(opts Options) (*Report, error) {
	opts.applyDefaults()
	warmup, measure := sec(1500), sec(3000)
	if opts.Scale == ScaleShort {
		warmup, measure = sec(300), sec(600)
	}
	rep := &Report{
		ID:    "ext-sapp-adelta",
		Title: "SAPP with device-side adaptive Δ (k = 20)",
		PaperClaim: "if the device finds that it is getting too many probes, it can, say, double its " +
			"value of Δ; the probe load will eventually drop to one half of its previous value",
	}
	type variant struct {
		name     string
		adaptive bool
		high     float64
	}
	variants := []variant{{"fixed_delta", false, 0}, {"adaptive_delta", true, 0.6}}
	results, err := Replications(len(variants), func(i int) (float64, error) {
		v := variants[i]
		// Protocol-specific engine knobs stay outside the declarative
		// Spec: compile the Spec to a Config, tweak, then populate.
		spec := staticSpec(protocol.SAPP, 20, sec(10), warmup+measure)
		cfg, err := spec.Config(opts.Seed)
		if err != nil {
			return 0, err
		}
		dev := sapp.DefaultDeviceConfig()
		dev.AdaptiveDelta = v.adaptive
		if v.high > 0 {
			dev.AdaptHigh = v.high
			dev.AdaptLow = 0.2
		}
		cfg.SAPPDevice = dev
		w, err := simrun.NewWorld(cfg)
		if err != nil {
			return 0, err
		}
		if err := spec.Populate(w); err != nil {
			return 0, err
		}
		w.Run(warmup)
		w.ResetMeasurements()
		w.Run(warmup + measure)
		load := w.DeviceLoad().Stats()
		return load.Mean(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, load := range results {
		rep.AddMetric(fmt.Sprintf("load_%s", variants[i].name), load, unspecified(), "probes/s", "")
	}
	rep.AddFinding("with AdaptHigh = 0.6 the device doubles Δ whenever the measured load exceeds 0.6·L_nom, driving the CP-perceived load up and the real load down — a device-side throttle on top of SAPP")
	return rep, nil
}

func runExtNaiveLoad(opts Options) (*Report, error) {
	opts.applyDefaults()
	measure := sec(300)
	if opts.Scale == ScaleShort {
		measure = sec(120)
	}
	rep := &Report{
		ID:    "ext-naive-load",
		Title: "Naive fixed-period probing: device load vs k",
		PaperClaim: "the simple scheme to regularly probe a node may easily lead to over- or " +
			"underloading (Section 1)",
	}
	const period = time.Second
	ks := []int{1, 5, 10, 20, 40, 80}
	results, err := Replications(len(ks), func(i int) (float64, error) {
		k := ks[i]
		spec := staticSpec(protocol.Naive, k, sec(3), sec(30)+measure)
		spec.NaivePeriod = scenario.Dur(period)
		w, err := spec.World(opts.Seed + uint64(k))
		if err != nil {
			return 0, err
		}
		w.Run(sec(30))
		w.ResetMeasurements()
		w.Run(sec(30) + measure)
		load := w.DeviceLoad().Stats()
		return load.Mean(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, load := range results {
		rep.AddMetric(fmt.Sprintf("load_k%d", ks[i]), load, float64(ks[i]), "probes/s",
			"expected k/period; L_nom = 10 is crossed at k = 10")
	}
	rep.AddFinding("the naive scheme has no feedback: at k = 80 the device sees 8x its nominal load, at k = 1 it wastes detection latency — the motivation for both adaptive protocols")
	return rep, nil
}
