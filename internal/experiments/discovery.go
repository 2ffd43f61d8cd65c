package experiments

import (
	"time"

	"presence/internal/core/protocol"
	"presence/internal/scenario"
	"presence/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "ext-discovery",
		Title:    "Announcement expiry vs probing: why discovery needs liveness",
		Artefact: "extension (the premise of the paper and of its ref. [1], \"Enhancing discovery with liveness\")",
		Run:      runExtDiscovery,
	})
}

// runExtDiscovery quantifies the gap the probe protocols close: with
// announcements alone, a silent crash is noticed only when the max-age
// lapses (tens of seconds at our demo parameters, ≥1800 s at the UPnP
// spec minimum); with DCPP probing on top, within about a second.
func runExtDiscovery(opts Options) (*Report, error) {
	opts.applyDefaults()
	settle := sec(60)
	if opts.Scale == ScaleShort {
		settle = sec(35)
	}
	const (
		maxAge = 60 * time.Second
		period = 20 * time.Second
	)
	run := func(probe bool) (expiry, probing stats.Welford, err error) {
		spec := staticSpec(protocol.DCPP, 10, 0, settle+maxAge+sec(10))
		spec.Discovery = &scenario.Discovery{
			MaxAge:           scenario.Dur(maxAge),
			Period:           scenario.Dur(period),
			ProbeOnDiscovery: probe,
		}
		w, err := spec.World(opts.Seed)
		if err != nil {
			return expiry, probing, err
		}
		w.Run(settle)
		killAt := w.KillDevice()
		w.Run(killAt + maxAge + sec(10))
		dev := w.Device().ID
		for _, h := range w.ActiveCPs() {
			if at, ok := h.ExpiredDevice(dev); ok {
				expiry.Add((at - killAt).Seconds())
			}
			if at, ok := h.LostDevice(dev); ok {
				probing.Add((at - killAt).Seconds())
			}
		}
		return expiry, probing, nil
	}

	rep := &Report{
		ID:    "ext-discovery",
		Title: "Silent-crash detection: announcement expiry vs DCPP probing (k = 10)",
		PaperClaim: "an important requirement is that the absence of nodes should be detected quickly " +
			"(e.g., in the order of one second) — announcement max-age expiry cannot deliver that",
	}
	expOnly, _, err := run(false)
	if err != nil {
		return nil, err
	}
	_, probed, err := run(true)
	if err != nil {
		return nil, err
	}
	rep.AddMetric("expiry_detect_mean", expOnly.Mean(), unspecified(), "s",
		"announcements every 20 s, max-age 60 s (UPnP spec minimum is 1800 s!)")
	rep.AddMetric("expiry_detect_count", float64(expOnly.Count()), 10, "CPs", "")
	rep.AddMetric("probe_detect_mean", probed.Mean(), unspecified(), "s", "DCPP probing on top of discovery")
	rep.AddMetric("probe_detect_max", probed.Max(), unspecified(), "s", "")
	rep.AddMetric("probe_detect_count", float64(probed.Count()), 10, "CPs", "")
	if probed.Mean() > 0 {
		rep.AddMetric("speedup", expOnly.Mean()/probed.Mean(), unspecified(), "×",
			"probing vs expiry-only detection")
	}
	rep.AddFinding("with the UPnP-mandated max-age of 1800 s the expiry path would take 30+ minutes; the probe protocol meets the paper's one-second requirement regardless of max-age")
	return rep, nil
}
