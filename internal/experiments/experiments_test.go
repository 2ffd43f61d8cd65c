package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSeed = 2005 // DSN 2005

func runShort(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := e.Run(Options{Seed: testSeed, Scale: ScaleShort})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != id {
		t.Fatalf("report ID = %q, want %q", rep.ID, id)
	}
	return rep
}

func metric(t *testing.T, rep *Report, name string) float64 {
	t.Helper()
	m, ok := rep.Metric(name)
	if !ok {
		t.Fatalf("metric %q missing from %s; have %v", name, rep.ID, metricNames(rep))
	}
	return m.Got
}

func metricNames(rep *Report) []string {
	names := make([]string, len(rep.Metrics))
	for i, m := range rep.Metrics {
		names[i] = m.Name
	}
	return names
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2-sapp-3cps", "fig3-sapp-zoom", "fig4-sapp-leave", "fig5-dcpp-churn",
		"tab-sapp-steady", "tab-dcpp-steady", "tab-dcpp-static",
		"ext-fairness", "ext-detect", "ext-dcpp-loss", "ext-overlay",
		"ext-sapp-adelta", "ext-naive-load", "ext-seeds", "ext-discovery",
		"ext-churn-models",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	// Paper artefacts must sort before extensions.
	for i := 1; i < len(all); i++ {
		if strings.HasPrefix(all[i-1].ID, "ext-") && !strings.HasPrefix(all[i].ID, "ext-") {
			t.Errorf("extension %q ordered before artefact %q", all[i-1].ID, all[i].ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

func TestTabSAPPSteadyShort(t *testing.T) {
	rep := runShort(t, "tab-sapp-steady")
	load := metric(t, rep, "device_load_mean")
	if load < 5 || load > 16 {
		t.Fatalf("SAPP steady load = %g, want near L_nom band", load)
	}
	if buf := metric(t, rep, "buffer_mean_occupancy"); buf > 0.05 {
		t.Fatalf("buffer occupancy = %g, want ≪1", buf)
	}
	// Bimodality: the p90 delay must be much larger than the p10 delay.
	p10, p90 := metric(t, rep, "cp_delay_p10"), metric(t, rep, "cp_delay_p90")
	if p90 < 5*p10 {
		t.Fatalf("delay distribution not bimodal: p10=%g p90=%g", p10, p90)
	}
	if starved := metric(t, rep, "cps_starved"); starved < 5 {
		t.Fatalf("only %g CPs starved; paper has almost all near δ_max", starved)
	}
}

func TestFig2Short(t *testing.T) {
	rep := runShort(t, "fig2-sapp-3cps")
	if len(rep.Series) != 3 {
		t.Fatalf("fig2 recorded %d series, want 3", len(rep.Series))
	}
	for _, s := range rep.Series {
		if s.Len() == 0 {
			t.Fatalf("series %s empty", s.Name())
		}
	}
	if spread := metric(t, rep, "tail_freq_spread"); spread < 2 {
		t.Fatalf("tail frequency spread = %g, want clearly unequal", spread)
	}
}

func TestFig3Short(t *testing.T) {
	rep := runShort(t, "fig3-sapp-zoom")
	if len(rep.Series) == 0 || len(rep.Series) > 7 {
		t.Fatalf("fig3 recorded %d series, want 1..7", len(rep.Series))
	}
	if active := metric(t, rep, "window_cps_active"); active < 1 {
		t.Fatal("no CP had activity in the zoom window")
	}
	// All samples must lie within the zoom window.
	for _, s := range rep.Series {
		for _, p := range s.Points() {
			if p.T < sec(2300) || p.T >= sec(2360) {
				t.Fatalf("series %s has sample at %v outside window", s.Name(), p.T)
			}
		}
	}
}

func TestFig4Short(t *testing.T) {
	rep := runShort(t, "fig4-sapp-leave")
	if len(rep.Series) != 2 {
		t.Fatalf("fig4 recorded %d survivor series, want 2", len(rep.Series))
	}
	load := metric(t, rep, "post_leave_load")
	if load <= 0 {
		t.Fatalf("post-leave load = %g", load)
	}
	if ratio := metric(t, rep, "survivor_freq_ratio"); math.IsNaN(ratio) || ratio < 1 {
		t.Fatalf("survivor ratio = %g", ratio)
	}
}

func TestFig5Short(t *testing.T) {
	rep := runShort(t, "fig5-dcpp-churn")
	load := metric(t, rep, "load_mean")
	if load < 7.5 || load > 11 {
		t.Fatalf("churn load mean = %g, want near 9.7", load)
	}
	// Spikes exist (joins) but the mean stays near L_nom.
	if peak := metric(t, rep, "load_peak"); peak < 11 {
		t.Fatalf("load peak = %g; expected join spikes above L_nom", peak)
	}
	if frac := metric(t, rep, "frac_bins_over_nominal"); frac > 0.2 {
		t.Fatalf("%.0f%% of bins exceed L_nom; paper says exceedance is rare", frac*100)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("fig5 recorded %d series, want load + #CPs", len(rep.Series))
	}
}

func TestTabDCPPSteadyShort(t *testing.T) {
	rep := runShort(t, "tab-dcpp-steady")
	load := metric(t, rep, "load_mean")
	if load < 8.5 || load > 11 {
		t.Fatalf("steady churn load = %g, want ≈9.7", load)
	}
	if b := metric(t, rep, "batches"); b < 2 {
		t.Fatalf("batch means ran only %g batches", b)
	}
}

func TestTabDCPPStaticShort(t *testing.T) {
	rep := runShort(t, "tab-dcpp-static")
	cases := map[string]float64{
		"load_k1": 2, "load_k2": 4, "load_k5": 10,
		"load_k20": 10, "load_k60": 10,
	}
	for name, want := range cases {
		got := metric(t, rep, name)
		if math.Abs(got-want) > 0.15*want+0.3 {
			t.Fatalf("%s = %g, want ≈%g", name, got, want)
		}
	}
}

func TestExtFairnessShort(t *testing.T) {
	rep := runShort(t, "ext-fairness")
	sappJ := metric(t, rep, "jain_sapp")
	dcppJ := metric(t, rep, "jain_dcpp")
	naiveJ := metric(t, rep, "jain_naive")
	if dcppJ < 0.99 {
		t.Fatalf("DCPP Jain = %g, want ≈1", dcppJ)
	}
	if naiveJ < 0.99 {
		t.Fatalf("naive Jain = %g, want ≈1", naiveJ)
	}
	if sappJ > dcppJ-0.05 {
		t.Fatalf("SAPP Jain %g not clearly below DCPP %g", sappJ, dcppJ)
	}
}

func TestExtDetectShort(t *testing.T) {
	rep := runShort(t, "ext-detect")
	// DCPP latency grows with k: compare k=1 and k=40 means.
	lat1 := metric(t, rep, "dcpp_k1_mean")
	lat40 := metric(t, rep, "dcpp_k40_mean")
	if !(lat40 > lat1) {
		t.Fatalf("DCPP detection latency did not grow with k: k1=%g k40=%g", lat1, lat40)
	}
	if lat1 < 0.05 || lat1 > 1.2 {
		t.Fatalf("DCPP k=1 latency = %g s, want within ≈d_min + failed cycle", lat1)
	}
	// The bound must hold.
	max40 := metric(t, rep, "dcpp_k40_max")
	if max40 > 40*0.1+0.085+0.2 {
		t.Fatalf("DCPP k=40 max latency %g exceeds schedule bound", max40)
	}
}

func TestExtDCPPLossShort(t *testing.T) {
	rep := runShort(t, "ext-dcpp-loss")
	base := metric(t, rep, "load_mean_no_loss")
	lossy := metric(t, rep, "load_mean_bernoulli_5pct")
	if base < 7.5 || base > 11 {
		t.Fatalf("no-loss churn mean = %g", base)
	}
	if lossy <= 0 {
		t.Fatalf("lossy churn mean = %g", lossy)
	}
	if r := metric(t, rep, "retransmits_bernoulli_5pct"); r == 0 {
		t.Fatal("no retransmissions under 5% loss")
	}
	if r := metric(t, rep, "retransmits_no_loss"); r != 0 {
		t.Fatalf("%g retransmissions without loss", r)
	}
}

func TestExtOverlayShort(t *testing.T) {
	rep := runShort(t, "ext-overlay")
	if cov := metric(t, rep, "coverage"); cov < 0.5 {
		t.Fatalf("overlay coverage = %g, want most CPs informed", cov)
	}
	if n := metric(t, rep, "notices_sent"); n == 0 {
		t.Fatal("no leave notices sent")
	}
}

func TestExtSAPPAdaptiveDeltaShort(t *testing.T) {
	rep := runShort(t, "ext-sapp-adelta")
	fixed := metric(t, rep, "load_fixed_delta")
	adaptive := metric(t, rep, "load_adaptive_delta")
	if !(adaptive < fixed) {
		t.Fatalf("adaptive Δ did not reduce load: fixed=%g adaptive=%g", fixed, adaptive)
	}
}

func TestExtNaiveLoadShort(t *testing.T) {
	rep := runShort(t, "ext-naive-load")
	for _, k := range []int{1, 10, 80} {
		got := metric(t, rep, "load_k"+itoa(k))
		if math.Abs(got-float64(k)) > 0.1*float64(k)+0.3 {
			t.Fatalf("naive load k=%d: %g, want ≈%d", k, got, k)
		}
	}
}

func itoa(k int) string {
	if k == 1 {
		return "1"
	}
	if k == 10 {
		return "10"
	}
	return "80"
}

func TestExtChurnModelsShort(t *testing.T) {
	rep := runShort(t, "ext-churn-models")
	models := []string{"uniform", "flash_crowd", "markov", "heavy_tail", "diurnal"}
	if len(rep.Series) != len(models) {
		t.Fatalf("recorded %d load series, want one per model", len(rep.Series))
	}
	for _, m := range models {
		// DCPP's guarantee must hold under every dynamic: the mean load
		// never exceeds L_nom (plus binning slack).
		if load := metric(t, rep, "load_mean_"+m); load <= 0 || load > 11 {
			t.Fatalf("%s: load mean %g outside (0, L_nom]", m, load)
		}
		if frac := metric(t, rep, "detect_frac_"+m); frac < 0.5 {
			t.Fatalf("%s: only %.0f%% of present CPs detected the crash", m, frac*100)
		}
		if max := metric(t, rep, "detect_max_"+m); max > 25 {
			t.Fatalf("%s: max detection latency %g s beyond the observation window", m, max)
		}
	}
	// The static-at-kill baseline: uniform churn keeps tens of CPs, so
	// the population means must differ across models (the sweep is not
	// degenerate).
	if mu, md := metric(t, rep, "mean_cps_uniform"), metric(t, rep, "mean_cps_diurnal"); mu == md {
		t.Fatalf("uniform and diurnal population means identical (%g); models not distinct", mu)
	}
}

func TestReportFormatAndSeriesOutput(t *testing.T) {
	rep := runShort(t, "fig2-sapp-3cps")
	text := rep.Format()
	for _, want := range []string{"## fig2-sapp-3cps", "| metric |", "tail_freq_spread"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, text)
		}
	}
	dir := t.TempDir()
	if err := rep.WriteSeries(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "fig2-sapp-3cps_*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("wrote %d .dat files, want 3", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# t(sec)") {
		t.Fatalf("dat file missing header: %q", string(data[:40]))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.applyDefaults()
	if o.Scale != ScalePaper {
		t.Fatalf("default scale = %q, want paper", o.Scale)
	}
	if !ScaleShort.Valid() || !ScalePaper.Valid() || Scale("nope").Valid() {
		t.Fatal("Scale.Valid broken")
	}
}

func TestExtSeedsShort(t *testing.T) {
	rep := runShort(t, "ext-seeds")
	mean := metric(t, rep, "replication_mean_of_means")
	if mean < 8.5 || mean > 11 {
		t.Fatalf("replication mean of means = %g, want near 9.7", mean)
	}
	if ci := metric(t, rep, "replication_mean_ci"); ci <= 0 || ci > 2 {
		t.Fatalf("replication CI = %g", ci)
	}
}

func TestTabDCPPSteadyWarmupDiagnostic(t *testing.T) {
	rep := runShort(t, "tab-dcpp-steady")
	mser := metric(t, rep, "mser_residual_warmup")
	// The fixed warmup must have removed the transient: MSER should not
	// want to cut more than a quarter of the post-warmup run.
	if pts := mser; pts > 1250 {
		t.Fatalf("MSER residual warmup = %g bins, fixed warmup inadequate", pts)
	}
}

func TestExtDiscoveryShort(t *testing.T) {
	rep := runShort(t, "ext-discovery")
	expiry := metric(t, rep, "expiry_detect_mean")
	probe := metric(t, rep, "probe_detect_mean")
	if expiry < 20 || expiry > 75 {
		t.Fatalf("expiry detection = %gs, want within [max-age−period, max-age+sweep]", expiry)
	}
	if probe > 3 {
		t.Fatalf("probe detection = %gs, want order of a second", probe)
	}
	if speedup := metric(t, rep, "speedup"); speedup < 10 {
		t.Fatalf("probing speedup = %g×, want ≫1", speedup)
	}
	if n := metric(t, rep, "probe_detect_count"); n != 10 {
		t.Fatalf("only %g CPs detected via probing", n)
	}
}
