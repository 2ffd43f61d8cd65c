package simrun

import (
	"math"
	"strings"
	"testing"
	"time"

	"presence/internal/core/protocol"
	"presence/internal/stats"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func mustWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := NewWorld(Config{Protocol: protocol.DCPP, LoadBin: -time.Second}); err == nil {
		t.Error("negative LoadBin accepted")
	}
	if _, err := NewWorld(Config{Protocol: protocol.DCPP,
		Processing: ProcessingConfig{Min: time.Second, Max: time.Millisecond}}); err == nil {
		t.Error("inverted processing bounds accepted")
	}
}

func TestProtocolValid(t *testing.T) {
	for _, p := range []protocol.Name{protocol.SAPP, protocol.DCPP, protocol.Naive} {
		if !p.Valid() {
			t.Errorf("%q should be valid", p)
		}
	}
	if protocol.Name("swim").Valid() {
		t.Error("unknown protocol reported valid")
	}
}

func TestLoadRecorderBinsAndZeroFill(t *testing.T) {
	l := NewLoadRecorder("load", time.Second, 0)
	l.Record(sec(0.1))
	l.Record(sec(0.2))
	l.Record(sec(2.5)) // bin 1 empty, must be zero-filled
	l.Flush(sec(4))
	pts := l.Series().Points()
	if len(pts) != 4 {
		t.Fatalf("bins = %d, want 4", len(pts))
	}
	want := []float64{2, 0, 1, 0}
	for i, p := range pts {
		if p.V != want[i] {
			t.Fatalf("bin %d rate = %g, want %g", i, p.V, want[i])
		}
	}
	if l.Total() != 3 {
		t.Fatalf("Total = %d", l.Total())
	}
	st := l.Stats()
	if st.Count() != 4 || st.Mean() != 0.75 {
		t.Fatalf("stats = %v", st.String())
	}
}

func TestLoadRecorderReset(t *testing.T) {
	l := NewLoadRecorder("load", time.Second, 0)
	l.Record(sec(0.5))
	l.Flush(sec(2))
	l.Reset(sec(2))
	l.Record(sec(2.5))
	l.Flush(sec(3))
	if l.Total() != 1 {
		t.Fatalf("Total after reset = %d, want 1", l.Total())
	}
	pts := l.Series().Points()
	if len(pts) != 1 || pts[0].V != 1 {
		t.Fatalf("series after reset = %v", pts)
	}
}

func TestDCPPLoneCPProbesAtMaxFrequency(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 1})
	if _, err := w.AddCP(); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(120))
	// A lone CP is told to wait d_min = 0.5 s each cycle: load ≈ 2/s
	// (slightly less due to reply latency).
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load < 1.7 || load > 2.05 {
		t.Fatalf("lone-CP load = %g probes/s, want ≈2 (f_max)", load)
	}
}

func TestDCPPStaticLoadBoundedByNominal(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 2})
	if err := w.AddCPsStaggered(20, sec(5)); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(60))
	w.ResetMeasurements()
	w.Run(sec(300))
	load := w.DeviceLoad().Stats()
	if load.Mean() > 10.2 {
		t.Fatalf("static DCPP load mean = %g exceeds L_nom = 10", load.Mean())
	}
	if load.Mean() < 9.0 {
		t.Fatalf("static DCPP load mean = %g, want near L_nom", load.Mean())
	}
	if load.Max() > 10.5+1e-9 {
		t.Fatalf("static DCPP load peak = %g exceeds L_nom bound", load.Max())
	}
	// Fairness: every CP gets (almost exactly) the same frequency.
	freqs := w.CPFrequencies()
	if len(freqs) != 20 {
		t.Fatalf("frequencies for %d CPs, want 20", len(freqs))
	}
	if j := stats.JainIndex(freqs); j < 0.99 {
		t.Fatalf("DCPP static fairness J = %g, want ≈1", j)
	}
	// Per-CP frequency ≈ L_nom/k = 0.5.
	for _, f := range freqs {
		if f < 0.4 || f > 0.6 {
			t.Fatalf("per-CP frequency %g outside ≈0.5", f)
		}
	}
}

func TestDCPPFewCPsLoadIsKTimesFmax(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 3})
	if _, err := w.AddCPs(3); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(60))
	w.ResetMeasurements()
	w.Run(sec(240))
	// 3 CPs × f_max 2/s = 6 probes/s < L_nom: under-subscribed regime.
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load < 5.2 || load > 6.2 {
		t.Fatalf("3-CP load = %g, want ≈6", load)
	}
}

func TestSAPPTwoCPsStayInBand(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.SAPP, Seed: 4})
	if err := w.AddCPsStaggered(2, sec(1)); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(600))
	w.ResetMeasurements()
	w.Run(sec(1800))
	// The adaptation keeps the total probe rate R within
	// [L_nom/β, β·L_nom] = [6.67, 15]; "for one or two CPs the probe
	// frequencies were balanced".
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load < 6 || load > 16 {
		t.Fatalf("2-CP SAPP load = %g, want within adaptation band ≈[6.7, 15]", load)
	}
}

func TestSAPPManyCPsUnfairAndDeviceLoadGood(t *testing.T) {
	if testing.Short() {
		t.Skip("long SAPP run")
	}
	cfg := Config{Protocol: protocol.SAPP, Seed: 5, RecordCPSeries: true}
	w := mustWorld(t, cfg)
	if err := w.AddCPsStaggered(20, sec(10)); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(2000))
	w.ResetMeasurements()
	w.Run(sec(6000))
	// Device load stays near L_nom (the paper: "despite this abnormal
	// behavior of the CPs, the device load is quite good").
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load < 5 || load > 16 {
		t.Fatalf("SAPP k=20 device load = %g, want near L_nom", load)
	}
	// Unfairness: the frequency spread must be extreme (paper: most CPs
	// at δ ≈ 10 s ⇒ 0.1/s, a couple fast at ≈2.5/s).
	freqs := w.CPFrequencies()
	if len(freqs) != 20 {
		t.Fatalf("%d active CPs, want 20", len(freqs))
	}
	minF, maxF := freqs[0], freqs[len(freqs)-1]
	if maxF/minF < 5 {
		t.Fatalf("SAPP frequency spread max/min = %g (min=%g max=%g), want ≫1 (unfair)", maxF/minF, minF, maxF)
	}
	if j := stats.JainIndex(freqs); j > 0.9 {
		t.Fatalf("SAPP fairness J = %g, expected clearly unfair (<0.9)", j)
	}
}

func TestNaiveLoadScalesWithPopulation(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.Naive, Seed: 6, Params: protocol.Params{NaivePeriod: time.Second}})
	if _, err := w.AddCPs(30); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(30))
	w.ResetMeasurements()
	w.Run(sec(120))
	// 30 CPs at 1/s ≈ 30 probes/s: triple the device's nominal load —
	// the overload the paper's introduction warns about.
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load < 27 || load > 31 {
		t.Fatalf("naive load = %g, want ≈30", load)
	}
}

func TestDetectionAfterSilentCrash(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 7})
	if _, err := w.AddCPs(5); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(60))
	killAt := w.KillDevice()
	w.Run(sec(70))
	// Every CP must detect the crash: worst case is its current wait
	// (≤ max(d_min, k·δ_min)) plus a full failed cycle (TOF + 3·TOS).
	for _, h := range w.ActiveCPs() {
		if !h.Lost {
			t.Fatalf("%s never detected the crash", h.Name)
		}
		latency := h.LostAt - killAt
		if latency <= 0 || latency > sec(3) {
			t.Fatalf("%s detection latency = %v, want (0, 3s]", h.Name, latency)
		}
	}
}

func TestDeviceByeNotifiesAllCPs(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 8})
	if _, err := w.AddCPs(4); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(10))
	w.DeviceBye()
	w.Run(sec(12))
	for _, h := range w.ActiveCPs() {
		if !h.SawBye {
			t.Fatalf("%s did not receive the bye", h.Name)
		}
		if h.Lost {
			t.Fatalf("%s treated a graceful leave as a crash", h.Name)
		}
	}
}

func TestDeviceReviveAndReprobe(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 9})
	if _, err := w.AddCPs(2); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(30))
	w.KillDevice()
	w.Run(sec(35))
	w.ReviveDevice()
	// Restart the stopped probers (the scenario layer owns re-discovery;
	// UPnP would re-announce the device).
	for _, h := range w.ActiveCPs() {
		if !h.Lost {
			t.Fatal("CP did not detect the crash")
		}
		h.Prober.Start()
	}
	before := w.DeviceLoad().Total()
	w.Run(sec(45))
	if w.DeviceLoad().Total() <= before {
		t.Fatal("no probes reached the revived device")
	}
}

func TestMassLeaveScenario(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 10})
	if _, err := w.AddCPs(20); err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleMassLeave(sec(30), 2); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(29))
	if w.ActiveCount() != 20 {
		t.Fatalf("population before leave = %d", w.ActiveCount())
	}
	w.Run(sec(60))
	if w.ActiveCount() != 2 {
		t.Fatalf("population after leave = %d, want 2", w.ActiveCount())
	}
	if err := w.ScheduleMassLeave(sec(70), -1); err == nil {
		t.Error("negative remaining accepted")
	}
}

func TestUniformChurnKeepsPopulationInBounds(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 11})
	churn := UniformChurn{Min: 1, Max: 60, Rate: 0.2}
	if err := w.StartChurn(churn); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(300))
	counts := w.CPCountSeries().Points()
	if len(counts) < 20 {
		t.Fatalf("only %d population changes in 300 s at rate 0.2", len(counts))
	}
	distinct := map[float64]bool{}
	for _, p := range counts {
		if p.V < 0 || p.V > 60 {
			t.Fatalf("population %g outside [0, 60]", p.V)
		}
		distinct[p.V] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("population took only %d distinct values; churn looks broken", len(distinct))
	}
	if w.CPCountStats().Mean() < 10 {
		t.Fatalf("mean population = %g, want ≈30 for U{1..60}", w.CPCountStats().Mean())
	}
}

func TestChurnValidation(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 12})
	if err := w.StartChurn(UniformChurn{Min: 5, Max: 1, Rate: 1}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if err := w.StartChurn(UniformChurn{Min: 1, Max: 5, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, float64) {
		w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: seed})
		if err := w.StartChurn(UniformChurn{Min: 1, Max: 20, Rate: 0.5}); err != nil {
			t.Fatal(err)
		}
		w.Run(sec(120))
		st := w.DeviceLoad().Stats()
		return w.DeviceLoad().Total(), st.Mean()
	}
	t1, m1 := run(42)
	t2, m2 := run(42)
	if t1 != t2 || m1 != m2 {
		t.Fatalf("same seed diverged: (%d, %g) vs (%d, %g)", t1, m1, t2, m2)
	}
	t3, _ := run(43)
	if t3 == t1 {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestOverlayDisseminatesLeave(t *testing.T) {
	cfg := Config{Protocol: protocol.SAPP, Seed: 13, EnableOverlay: true}
	w := mustWorld(t, cfg)
	if _, err := w.AddCPs(8); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(120))
	killAt := w.KillDevice()
	w.Run(sec(180))
	informed := 0
	var firstDetect, lastInformed time.Duration
	firstDetect = time.Duration(math.MaxInt64)
	for _, h := range w.ActiveCPs() {
		if h.Lost && h.LostAt < firstDetect {
			firstDetect = h.LostAt
		}
		if at, ok := h.Overlay.Informed(w.Device().ID); ok {
			informed++
			if at > lastInformed {
				lastInformed = at
			}
		}
	}
	if informed < len(w.ActiveCPs())/2 {
		t.Fatalf("only %d/%d CPs informed of the leave", informed, len(w.ActiveCPs()))
	}
	if lastInformed < killAt {
		t.Fatal("informed before the crash?")
	}
	_ = firstDetect
}

func TestCPSeriesRecorded(t *testing.T) {
	cfg := Config{Protocol: protocol.DCPP, Seed: 14, RecordCPSeries: true}
	w := mustWorld(t, cfg)
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(30))
	if h.Freq == nil || h.Freq.Len() == 0 {
		t.Fatal("CP frequency series empty")
	}
	// A lone DCPP CP runs at f_max = 2/s.
	last, _ := h.Freq.Last()
	if last.V != 2 {
		t.Fatalf("lone DCPP CP frequency = %g, want 2", last.V)
	}
	if h.DelayStats.Count() == 0 {
		t.Fatal("per-CP delay stats empty")
	}
}

func TestSeriesWindowConfig(t *testing.T) {
	cfg := Config{Protocol: protocol.DCPP, Seed: 15, RecordCPSeries: true}
	cfg.SeriesWindow.From = sec(10)
	cfg.SeriesWindow.To = sec(20)
	w := mustWorld(t, cfg)
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(30))
	for _, p := range h.Freq.Points() {
		if p.T < sec(10) || p.T >= sec(20) {
			t.Fatalf("point at %v outside configured window", p.T)
		}
	}
	if h.Freq.Len() == 0 {
		t.Fatal("windowed series empty")
	}
}

func TestRemoveCPIdempotent(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 16})
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(1))
	w.RemoveCP(h.ID)
	w.RemoveCP(h.ID) // second removal is a no-op
	if w.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d", w.ActiveCount())
	}
	if len(w.AllCPs()) != 1 {
		t.Fatalf("AllCPs lost the removed CP")
	}
	w.Run(sec(5))
}

func TestBufferOccupancySmall(t *testing.T) {
	// The paper: "network buffer overflow is a seldom phenomenon as the
	// average buffer length is very small (≈0.004)".
	w := mustWorld(t, Config{Protocol: protocol.SAPP, Seed: 17})
	if err := w.AddCPsStaggered(20, sec(5)); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(600))
	occ := w.Net().BufferOccupancy().Mean()
	if occ > 0.05 {
		t.Fatalf("mean buffer occupancy = %g, want ≪1", occ)
	}
	if c := w.Net().Counters(); c.Overflowed != 0 {
		t.Fatalf("buffer overflows = %d, want 0", c.Overflowed)
	}
}

func BenchmarkWorldDCPPChurn60s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{Protocol: protocol.DCPP, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.StartChurn(DefaultUniformChurn()); err != nil {
			b.Fatal(err)
		}
		w.Run(sec(60))
	}
}

func BenchmarkWorldSAPP20CPs60s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{Protocol: protocol.SAPP, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.AddCPs(20); err != nil {
			b.Fatal(err)
		}
		w.Run(sec(60))
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	var buf strings.Builder
	cfg := Config{Protocol: protocol.DCPP, Seed: 50, Trace: &buf}
	w := mustWorld(t, cfg)
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(5))
	w.KillDevice()
	w.Run(sec(15))
	w.RemoveCP(h.ID)
	w.Run(sec(16))
	out := buf.String()
	for _, want := range []string{" join cp_01", " probe ", " crash device ", " lost cp_01", " leave cp_01"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%.400s", want, out)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	run := func() string {
		var buf strings.Builder
		w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 51, Trace: &buf})
		if _, err := w.AddCPs(3); err != nil {
			t.Fatal(err)
		}
		w.Run(sec(30))
		return buf.String()
	}
	if run() != run() {
		t.Fatal("same-seed traces differ")
	}
}
