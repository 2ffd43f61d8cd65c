package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"presence/internal/core/protocol"
	"presence/internal/simnet"
	"presence/internal/simrun"
)

// TestRegistryRoundTripFixedPoint: encode→decode→encode of every
// registered scenario is a fixed point — the guarantee that scenarios
// can live in files without drifting.
func TestRegistryRoundTripFixedPoint(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for _, name := range names {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %q vanished", name)
		}
		enc1, err := spec.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := Decode(enc1)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("%s: JSON round trip is not a fixed point:\n--- first\n%s\n--- second\n%s",
				name, enc1, enc2)
		}
	}
}

// TestPaperScenariosCompileToHistoricalWorlds: the Spec path must replay
// the exact event stream of the hand-written world construction the
// experiments used before the scenario engine existed.
func TestPaperScenariosCompileToHistoricalWorlds(t *testing.T) {
	const seed = 2005
	type result struct {
		events uint64
		load   float64
	}
	run := func(w *simrun.World, horizon time.Duration) result {
		w.Run(horizon)
		st := w.DeviceLoad().Stats()
		return result{w.Sim().Executed(), st.Mean()}
	}

	// Fig. 4 (shortened horizon for test time).
	spec, _ := ByName("fig4-mass-leave")
	spec.Horizon = sec(1200)
	if ml := spec.Population.MassLeave; ml != nil {
		ml.LeaveAt = sec(300)
	}
	w, err := spec.World(seed)
	if err != nil {
		t.Fatal(err)
	}
	got := run(w, spec.Horizon.Std())
	hand, err := simrun.NewWorld(simrun.Config{
		Protocol: protocol.SAPP, Seed: seed, RecordCPSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hand.AddCPsStaggered(20, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := hand.ScheduleMassLeave(300*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	want := run(hand, 1200*time.Second)
	if got != want {
		t.Errorf("fig4 spec diverged from hand-built world: %+v vs %+v", got, want)
	}

	// Fig. 5.
	spec, _ = ByName("fig5-uniform-churn")
	spec.Horizon = sec(600)
	w, err = spec.World(seed)
	if err != nil {
		t.Fatal(err)
	}
	got = run(w, spec.Horizon.Std())
	hand, err = simrun.NewWorld(simrun.Config{Protocol: protocol.DCPP, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := hand.StartChurn(simrun.DefaultUniformChurn()); err != nil {
		t.Fatal(err)
	}
	want = run(hand, 600*time.Second)
	if got != want {
		t.Errorf("fig5 spec diverged from hand-built world: %+v vs %+v", got, want)
	}
}

// TestAllRegisteredScenariosRun: every registered scenario must build
// and run (at a shortened horizon) without panicking, producing load.
func TestAllRegisteredScenariosRun(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			spec.Horizon = sec(120)
			if ml := spec.Population.MassLeave; ml != nil {
				ml.LeaveAt = sec(60)
			}
			w, err := spec.World(1)
			if err != nil {
				t.Fatal(err)
			}
			w.Run(spec.Horizon.Std())
			if w.DeviceLoad().Total() == 0 {
				t.Fatal("no probes arrived at the device")
			}
		})
	}
}

func TestSpecDeterministicAcrossBuilds(t *testing.T) {
	spec, _ := ByName("bursty-loss")
	spec.Horizon = sec(300)
	run := func() (uint64, float64, uint64) {
		w, err := spec.World(7)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(spec.Horizon.Std())
		st := w.DeviceLoad().Stats()
		return w.Sim().Executed(), st.Mean(), w.Net().Counters().LostInFlight
	}
	ev1, load1, lost1 := run()
	ev2, load2, lost2 := run()
	if ev1 != ev2 || math.Float64bits(load1) != math.Float64bits(load2) || lost1 != lost2 {
		t.Fatalf("bursty-loss not reproducible: (%d,%g,%d) vs (%d,%g,%d)",
			ev1, load1, lost1, ev2, load2, lost2)
	}
	if lost1 == 0 {
		t.Fatal("Gilbert-Elliott channel lost nothing; loss model not wired")
	}
}

func TestLoadAndResolve(t *testing.T) {
	spec, _ := ByName("fig5-uniform-churn")
	b, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig5.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != spec.Name || loaded.Population.UniformChurn == nil {
		t.Fatalf("loaded spec mangled: %+v", loaded)
	}

	byName, err := Resolve("fig5-uniform-churn")
	if err != nil || byName.Name != "fig5-uniform-churn" {
		t.Fatalf("Resolve by name: %v, %v", byName, err)
	}
	byPath, err := Resolve(path)
	if err != nil || byPath.Name != "fig5-uniform-churn" {
		t.Fatalf("Resolve by path: %v, %v", byPath, err)
	}
	if _, err := Resolve("no-such-scenario"); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
}

func TestDecodeRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown-field":    `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"static":{"cps":1}},"bogus":1}`,
		"bad-duration":     `{"name":"x","protocol":"dcpp","horizon":60,"population":{"static":{"cps":1}}}`,
		"no-population":    `{"name":"x","protocol":"dcpp","horizon":"60s","population":{}}`,
		"two-populations":  `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"static":{"cps":1},"uniform_churn":{"min":1,"max":2,"rate":1}}}`,
		"bad-protocol":     `{"name":"x","protocol":"swim","horizon":"60s","population":{"static":{"cps":1}}}`,
		"zero-horizon":     `{"name":"x","protocol":"dcpp","horizon":"0s","population":{"static":{"cps":1}}}`,
		"bad-model-params": `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"uniform_churn":{"min":5,"max":1,"rate":1}}}`,
		"two-loss-models":  `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"static":{"cps":1}},"net":{"loss":{"bernoulli":0.1,"gilbert_elliott":{"good_to_bad":0.1,"bad_to_good":0.1,"loss_bad":0.5}}}}`,
		"bad-ge-prob":      `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"static":{"cps":1}},"net":{"loss":{"gilbert_elliott":{"good_to_bad":1.5,"bad_to_good":0.1,"loss_bad":0.5}}}}`,
		"empty-delay":      `{"name":"x","protocol":"dcpp","horizon":"60s","population":{"static":{"cps":1}},"net":{"delay":{}}}`,
	}
	for name, raw := range cases {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestNetAndMeasureCompile(t *testing.T) {
	constant := Dur(300 * time.Microsecond)
	spec := &Spec{
		Name:     "net-check",
		Protocol: "dcpp",
		Horizon:  sec(60),
		Population: Population{Static: &Static{
			CPs: 3, Spread: sec(5),
		}},
		Net: &Net{
			Delay:      &Delay{Constant: &constant},
			Loss:       &Loss{Bernoulli: ptr(0.05)},
			BufferCap:  500,
			DuplicateP: 0.01,
		},
		Processing: &Processing{Min: Dur(time.Millisecond), Max: Dur(2 * time.Millisecond)},
		Measure:    &Measure{CPSeries: true, WindowFrom: sec(10), WindowTo: sec(20), Decimate: 2},
		CrashAt:    []Duration{sec(50)},
	}
	cfg, err := spec.Config(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Net.Delay.(simnet.Constant); !ok {
		t.Fatalf("delay model = %T, want Constant", cfg.Net.Delay)
	}
	if _, ok := cfg.Net.Loss.(simnet.Bernoulli); !ok {
		t.Fatalf("loss model = %T, want Bernoulli", cfg.Net.Loss)
	}
	if cfg.Net.BufferCap != 500 || !cfg.RecordCPSeries || cfg.SeriesDecimate != 2 {
		t.Fatalf("config mistranslated: %+v", cfg)
	}
	w, err := spec.World(3)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(spec.Horizon.Std())
	if w.Device().Alive() {
		t.Fatal("crash_at did not kill the device")
	}
}

// TestGilbertElliottInstancesAreIndependent: Config must hand each world
// its own stateful loss channel.
func TestGilbertElliottInstancesAreIndependent(t *testing.T) {
	spec, _ := ByName("bursty-loss")
	a, err := spec.Config(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Config(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.Loss == b.Net.Loss {
		t.Fatal("two compiled configs share one Gilbert-Elliott instance")
	}
}

func TestRegisterPanics(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"unnamed": {Protocol: "dcpp", Horizon: sec(60),
			Population: Population{Static: &Static{CPs: 1}}},
		"duplicate": {Name: "fig5-uniform-churn", Protocol: "dcpp", Horizon: sec(60),
			Population: Population{Static: &Static{CPs: 1}}},
		"invalid": {Name: "broken", Protocol: "swim", Horizon: sec(60),
			Population: Population{Static: &Static{CPs: 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			Register(spec)
		}()
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1m30s"`)); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 90*time.Second {
		t.Fatalf("parsed %v, want 90s", d.Std())
	}
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("encoded %s, want \"1m30s\"", b)
	}
	if err := d.UnmarshalJSON([]byte(`"not a duration"`)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestResolveErrorListsKnownScenarios(t *testing.T) {
	_, err := Resolve("nope")
	if err == nil || !strings.Contains(err.Error(), "fig5-uniform-churn") {
		t.Fatalf("error %v does not list known scenarios", err)
	}
}

func ptr[T any](v T) *T { return &v }
