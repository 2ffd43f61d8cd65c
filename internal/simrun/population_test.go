package simrun

import (
	"math"
	"testing"
	"time"

	"presence/internal/core/protocol"
)

func newTestWorld(t *testing.T, seed uint64) *World {
	t.Helper()
	w, err := NewWorld(Config{Protocol: protocol.DCPP, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStaticPopulationMatchesStaggered: the model must replay the exact
// event stream of the historical AddCPsStaggered call — the experiments
// ported onto scenario specs depend on it.
func TestStaticPopulationMatchesStaggered(t *testing.T) {
	run := func(install func(w *World) error) (uint64, float64) {
		w := newTestWorld(t, 42)
		if err := install(w); err != nil {
			t.Fatal(err)
		}
		w.Run(120 * time.Second)
		st := w.DeviceLoad().Stats()
		return w.Sim().Executed(), st.Mean()
	}
	evA, loadA := run(func(w *World) error { return w.AddCPsStaggered(20, 10*time.Second) })
	evB, loadB := run(func(w *World) error {
		return w.StartPopulation(StaticPopulation{CPs: 20, Spread: 10 * time.Second})
	})
	if evA != evB || math.Float64bits(loadA) != math.Float64bits(loadB) {
		t.Fatalf("model diverged from AddCPsStaggered: events %d vs %d, load %g vs %g",
			evA, evB, loadA, loadB)
	}
}

// TestMassLeaveModelMatchesSchedule: same equivalence for the Fig. 4
// composition.
func TestMassLeaveModelMatchesSchedule(t *testing.T) {
	run := func(install func(w *World) error) (uint64, int) {
		w := newTestWorld(t, 7)
		if err := install(w); err != nil {
			t.Fatal(err)
		}
		w.Run(200 * time.Second)
		return w.Sim().Executed(), w.ActiveCount()
	}
	evA, nA := run(func(w *World) error {
		if err := w.AddCPsStaggered(20, 10*time.Second); err != nil {
			return err
		}
		return w.ScheduleMassLeave(100*time.Second, 2)
	})
	evB, nB := run(func(w *World) error {
		return w.StartPopulation(MassLeavePopulation{
			CPs: 20, Spread: 10 * time.Second,
			LeaveAt: 100 * time.Second, Remaining: 2,
		})
	})
	if evA != evB || nA != nB {
		t.Fatalf("mass-leave model diverged: events %d vs %d, survivors %d vs %d", evA, evB, nA, nB)
	}
	if nB != 2 {
		t.Fatalf("survivors = %d, want 2", nB)
	}
}

func TestFlashCrowdBurstsAreCorrelated(t *testing.T) {
	w := newTestWorld(t, 3)
	model := FlashCrowd{
		Base: 4, BaseSpread: 5 * time.Second,
		BurstRate: 1.0 / 60, BurstMin: 10, BurstMax: 20,
		DwellMin: 30 * time.Second, DwellMax: 90 * time.Second,
	}
	if err := w.StartPopulation(model); err != nil {
		t.Fatal(err)
	}
	w.Run(600 * time.Second)
	total := len(w.AllCPs())
	if total < model.Base+model.BurstMin {
		t.Fatalf("only %d CPs ever joined; no burst arrived in 600 s", total)
	}
	// Cohorts leave together: the CP count series must drop by at least
	// BurstMin within a single instant (each leave is its own -1 sample,
	// so sum consecutive drops sharing a timestamp).
	pts := w.CPCountSeries().Points()
	maxDrop := 0.0
	for i := 1; i < len(pts); i++ {
		drop := 0.0
		for j := i; j < len(pts) && pts[j].T == pts[i].T && pts[j].V < pts[j-1].V; j++ {
			drop += pts[j-1].V - pts[j].V
		}
		if drop > maxDrop {
			maxDrop = drop
		}
	}
	if maxDrop < float64(model.BurstMin) {
		t.Fatalf("largest population drop %.0f < burst min %d; cohort did not leave together",
			maxDrop, model.BurstMin)
	}
	// The base population never leaves.
	if w.ActiveCount() < model.Base {
		t.Fatalf("active %d < base %d", w.ActiveCount(), model.Base)
	}
}

func TestMarkovSessionsBounded(t *testing.T) {
	w := newTestWorld(t, 9)
	model := MarkovSessions{
		Members: 10,
		MeanOn:  60 * time.Second, MeanOff: 60 * time.Second,
		StartOn: 0.5,
	}
	if err := w.StartPopulation(model); err != nil {
		t.Fatal(err)
	}
	w.Run(900 * time.Second)
	for _, p := range w.CPCountSeries().Points() {
		if p.V > float64(model.Members) {
			t.Fatalf("population %v exceeds member count %d at %v", p.V, model.Members, p.T)
		}
	}
	// Sessions churned: rejoins create fresh CP hosts, so far more hosts
	// than members must exist over 15 mean on/off cycles.
	if total := len(w.AllCPs()); total <= model.Members {
		t.Fatalf("only %d CP hosts ever existed; sessions did not cycle", total)
	}
}

func TestHeavyTailLifetimes(t *testing.T) {
	for _, dist := range []string{LifetimePareto, LifetimeLogNormal} {
		w := newTestWorld(t, 11)
		model := HeavyTailLifetimes{
			ArrivalRate: 0.2, Initial: 5,
			Distribution: dist,
			Shape:        1.5, MinLifetime: 10 * time.Second,
			Mu: math.Log(30), Sigma: 1.5,
			MaxLifetime: 1800 * time.Second,
		}
		if err := w.StartPopulation(model); err != nil {
			t.Fatal(err)
		}
		w.Run(600 * time.Second)
		total := len(w.AllCPs())
		if total < model.Initial+20 {
			t.Fatalf("%s: only %d CPs ever joined at rate 0.2/s over 600 s", dist, total)
		}
		left := total - w.ActiveCount()
		if left == 0 {
			t.Fatalf("%s: no CP ever left; lifetimes not applied", dist)
		}
	}
}

// TestHeavyTailExtremeDrawsDoNotOverflow: tail draws beyond the kernel's
// time representation must be clamped, not wrapped into the past (a
// lognormal with mu=60 draws e^60 seconds routinely).
func TestHeavyTailExtremeDrawsDoNotOverflow(t *testing.T) {
	w := newTestWorld(t, 17)
	model := HeavyTailLifetimes{
		ArrivalRate:  1,
		Distribution: LifetimeLogNormal,
		Mu:           60, // e^60 s ≫ MaxInt64 ns
	}
	if err := w.StartPopulation(model); err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second) // panics without the overflow clamp
	if len(w.AllCPs()) == 0 {
		t.Fatal("no arrivals")
	}
}

func TestDiurnalArrivalsModulateRate(t *testing.T) {
	w := newTestWorld(t, 13)
	period := 600 * time.Second
	model := DiurnalArrivals{
		BaseRate: 0.2, Amplitude: 1, Period: period,
		MeanLifetime: 60 * time.Second,
	}
	if err := w.StartPopulation(model); err != nil {
		t.Fatal(err)
	}
	w.Run(4 * period)
	// Count joins in the sinusoid's positive half-cycles vs negative
	// half-cycles; with amplitude 1 the peak halves must dominate.
	var peakJoins, troughJoins int
	for _, h := range w.AllCPs() {
		phase := math.Mod(h.JoinedAt.Seconds(), period.Seconds()) / period.Seconds()
		if phase < 0.5 {
			peakJoins++
		} else {
			troughJoins++
		}
	}
	if peakJoins+troughJoins < 50 {
		t.Fatalf("only %d joins over 4 periods", peakJoins+troughJoins)
	}
	if float64(peakJoins) < 1.5*float64(troughJoins) {
		t.Fatalf("peak joins %d not clearly above trough joins %d; rate not modulated",
			peakJoins, troughJoins)
	}
}

// TestPopulationModelsDeterministic: every model must replay the same
// event stream for a fixed seed.
func TestPopulationModelsDeterministic(t *testing.T) {
	models := map[string]PopulationModel{
		"static":     StaticPopulation{CPs: 10, Spread: 5 * time.Second},
		"mass-leave": MassLeavePopulation{CPs: 10, Spread: 5 * time.Second, LeaveAt: 60 * time.Second, Remaining: 2},
		"uniform":    DefaultUniformChurn(),
		"flash": FlashCrowd{Base: 3, BurstRate: 0.02, BurstMin: 5, BurstMax: 10,
			DwellMin: 20 * time.Second, DwellMax: 60 * time.Second},
		"markov": MarkovSessions{Members: 8, MeanOn: 50 * time.Second, MeanOff: 50 * time.Second, StartOn: 0.5},
		"heavytail": HeavyTailLifetimes{ArrivalRate: 0.1, Initial: 3,
			Distribution: LifetimePareto, Shape: 1.2, MinLifetime: 15 * time.Second},
		"diurnal": DiurnalArrivals{BaseRate: 0.1, Amplitude: 0.8, Period: 300 * time.Second,
			MeanLifetime: 60 * time.Second, Initial: 2},
	}
	for name, m := range models {
		run := func() (uint64, float64) {
			w := newTestWorld(t, 2005)
			if err := w.StartPopulation(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w.Run(300 * time.Second)
			st := w.DeviceLoad().Stats()
			return w.Sim().Executed(), st.Mean()
		}
		ev1, load1 := run()
		ev2, load2 := run()
		if ev1 != ev2 || math.Float64bits(load1) != math.Float64bits(load2) {
			t.Errorf("%s not deterministic: events %d vs %d, load %g vs %g",
				name, ev1, ev2, load1, load2)
		}
	}
}

func TestPopulationModelValidation(t *testing.T) {
	bad := map[string]PopulationModel{
		"static-negative":   StaticPopulation{CPs: -1},
		"mass-leave-remain": MassLeavePopulation{CPs: 5, Remaining: -1},
		"uniform-bounds":    UniformChurn{Min: 5, Max: 1, Rate: 1},
		"uniform-rate":      UniformChurn{Min: 1, Max: 5, Rate: 0},
		"flash-rate":        FlashCrowd{BurstRate: 0, BurstMin: 1, BurstMax: 2},
		"flash-burst":       FlashCrowd{BurstRate: 1, BurstMin: 0, BurstMax: 2},
		"flash-dwell":       FlashCrowd{BurstRate: 1, BurstMin: 1, BurstMax: 2, DwellMin: time.Second, DwellMax: 0},
		"markov-mean":       MarkovSessions{Members: 1, MeanOn: 0, MeanOff: time.Second},
		"markov-prob":       MarkovSessions{Members: 1, MeanOn: time.Second, MeanOff: time.Second, StartOn: 2},
		"heavytail-dist":    HeavyTailLifetimes{ArrivalRate: 1, Distribution: "zipf"},
		"heavytail-shape":   HeavyTailLifetimes{ArrivalRate: 1, Distribution: LifetimePareto, Shape: 0, MinLifetime: time.Second},
		"heavytail-rate":    HeavyTailLifetimes{ArrivalRate: 0, Distribution: LifetimePareto, Shape: 1, MinLifetime: time.Second},
		"diurnal-amplitude": DiurnalArrivals{BaseRate: 1, Amplitude: 1.5, Period: time.Second, MeanLifetime: time.Second},
		"diurnal-period":    DiurnalArrivals{BaseRate: 1, Amplitude: 0.5, Period: 0, MeanLifetime: time.Second},
		"diurnal-lifetime":  DiurnalArrivals{BaseRate: 1, Amplitude: 0.5, Period: time.Second, MeanLifetime: 0},
	}
	for name, m := range bad {
		w := newTestWorld(t, 1)
		if err := w.StartPopulation(m); err == nil {
			t.Errorf("%s: invalid model accepted", name)
		}
	}
	w := newTestWorld(t, 1)
	if err := w.StartPopulation(nil); err == nil {
		t.Error("nil model accepted")
	}
}
