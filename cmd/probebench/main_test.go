package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2-sapp-3cps", "fig5-dcpp-churn", "tab-sapp-steady", "ext-fairness"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunOnlyShortScale(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-scale", "short", "-only", "fig5-dcpp-churn", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "load_mean") {
		t.Fatalf("missing metrics in output:\n%s", out.String())
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "fig5-dcpp-churn") {
		t.Fatal("report.md missing the experiment")
	}
	dats, err := filepath.Glob(filepath.Join(dir, "fig5-dcpp-churn_*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dats) != 2 {
		t.Fatalf("wrote %d .dat files, want 2 (load + #CPs)", len(dats))
	}
}

func TestRunWithPlot(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scale", "short", "-only", "fig2-sapp-3cps", "-out", "", "-plot"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cp_01_freq") {
		t.Fatalf("plot legend missing:\n%s", out.String())
	}
}

func TestRejectsBadInputs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "bogus"}, &out); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-only", "no-such-id"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-scenario", "fig5-uniform-churn", "-scale", "short"}, &out); err == nil {
		t.Error("-scenario with -scale accepted")
	}
	// The measurement modes moved to bench/ and to go test names; their
	// flags fail loudly instead of being ignored.
	for _, retired := range []string{"-json", "-compare", "-fleet", "-conformance", "-adversarial"} {
		if err := run([]string{"-scale", "short", "-only", "ext-naive-load", "-out", "", retired}, &out); err == nil {
			t.Errorf("retired flag %s accepted", retired)
		}
	}
}

func TestListScenariosAndScenarioRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-scenarios"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5-uniform-churn", "flash-crowd", "diurnal", "bursty-loss"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list-scenarios missing %q:\n%s", want, out.String())
		}
	}

	// Run one scenario from a JSON file and check the report plus the
	// written series.
	dir := t.TempDir()
	spec := `{"name":"mini-churn","protocol":"dcpp","horizon":"1m0s",` +
		`"population":{"uniform_churn":{"min":1,"max":10,"rate":0.1}}}`
	path := filepath.Join(dir, "mini.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	outDir := filepath.Join(dir, "series")
	if err := run([]string{"-scenario", path, "-seed", "5", "-out", outDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario-mini-churn") || !strings.Contains(out.String(), "load_mean") {
		t.Fatalf("scenario report missing:\n%s", out.String())
	}
	dats, err := filepath.Glob(filepath.Join(outDir, "scenario-mini-churn_*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dats) != 2 {
		t.Fatalf("wrote %d .dat files, want load + #CPs", len(dats))
	}
	if err := run([]string{"-scenario", "no-such-scenario"}, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// Suite flags are rejected, not silently ignored, in scenario mode.
	for _, args := range [][]string{
		{"-scenario", "flash-crowd", "-scale", "short"},
		{"-scenario", "flash-crowd", "-only", "fig5-dcpp-churn"},
		{"-scenario", "flash-crowd", "-json"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted, want conflict error", args)
		}
	}
}
