package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
)

// manifest is BENCHMARK.json as the pipeline reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCatalogue holds BENCHMARK.json and catalogue.go
// equal: same workloads and reasons, same metrics, units, directions
// and bounds, in the same order.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) ||
		m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("command %v, paths %v or run_seconds %d are not the ones README.md gives", m.Command, m.Paths, m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalogue %q", i, m.Workloads[i].Name, w.Name)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", m.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload once at a small size, traced, and
// checks what is emitted against what is declared: every end-to-end
// metric on every workload and never 0, every per-layer metric on at
// least one workload, no undeclared name, and no failed operation. It
// asserts nothing about time.
func TestSmoke(t *testing.T) {
	p := params{seed: 7, seconds: 1, cps: 200, trace: true, short: true}
	var mu sync.Mutex
	emitted := map[string]bool{}
	run := func(t *testing.T, w workloadDef) {
		r, err := w.run(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Skipped != "" {
			t.Skip(r.Skipped)
		}
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
		}
		for _, d := range endToEnd {
			if r.median(d.Name) <= 0 {
				t.Errorf("end-to-end metric %s reads %g", d.Name, r.median(d.Name))
			}
		}
		var got struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractJSON(r, perLayer)), &got); err != nil || len(got.Metrics) != len(perLayer) {
			t.Errorf("result JSON carries %d metrics (%v), want %d", len(got.Metrics), err, len(perLayer))
		}
		mu.Lock()
		defer mu.Unlock()
		for name := range r.Metrics {
			emitted[name] = true
		}
	}
	// The closed loops keep a core busy, so they run one after another;
	// the paced ones mostly sleep and run side by side.
	t.Run("closed", func(t *testing.T) {
		for _, w := range workloads {
			if w.Name == "hot-plain" || w.Name == "hot-auth" || w.Name == "sim-sweep" {
				t.Run(w.Name, func(t *testing.T) { run(t, w) })
			}
		}
	})
	t.Run("paced", func(t *testing.T) {
		for _, w := range workloads {
			if w.Name != "hot-plain" && w.Name != "hot-auth" && w.Name != "sim-sweep" {
				t.Run(w.Name, func(t *testing.T) { t.Parallel(); run(t, w) })
			}
		}
	})
	if t.Failed() {
		return
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !emitted[d.Name] {
			t.Errorf("%s is declared and no workload emitted it", d.Name)
		}
		delete(emitted, d.Name)
	}
	for name := range emitted {
		t.Errorf("%s is emitted and not declared", name)
	}
}

func TestNormaliseArgs(t *testing.T) {
	got := normaliseArgs([]string{"--workload", "hot-plain", "--trace", "0", "--seed", "3", "-trace"})
	want := []string{"--workload", "hot-plain", "--trace=0", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normaliseArgs = %v, want %v", got, want)
	}
}
