package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStaticScenario(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-protocol", "dcpp", "-cps", "5", "-duration", "1m", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"protocol        dcpp", "device load", "Jain fairness"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestChurnWithKillAndPlot(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-churn", "-duration", "2m", "-kill-at", "90s", "-plot"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "crash detection") {
		t.Fatalf("missing detection summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "device load (probes/s)") {
		t.Fatal("missing ASCII plot")
	}
}

func TestMassLeaveAndLossAndDATOutput(t *testing.T) {
	dat := filepath.Join(t.TempDir(), "load.dat")
	var out strings.Builder
	err := run([]string{"-protocol", "sapp", "-cps", "10", "-duration", "2m",
		"-leave-at", "1m", "-leave-to", "2", "-loss", "0.05", "-out", dat}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# t(sec)") {
		t.Fatal("dat file missing header")
	}
}

func TestRejectsBadProtocol(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-protocol", "swim"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestMultiDeviceDiscoveryTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.trace")
	var out strings.Builder
	err := run([]string{"-devices", "2", "-discovery", "-cps", "4",
		"-duration", "90s", "-trace", traceFile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), " join cp_01") || !strings.Contains(string(data), " probe ") {
		t.Fatalf("trace missing events: %.200s", string(data))
	}
}

func TestScenarioByName(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scenario", "fig5-uniform-churn", "-duration", "45s", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"scenario        fig5-uniform-churn", "protocol        dcpp", "device load", "active cps      mean"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestScenarioDumpAndFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scen.json")
	var out strings.Builder
	if err := run([]string{"-scenario", "markov-sessions", "-dump-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"markov_sessions"`) {
		t.Fatalf("dumped scenario missing population model:\n%s", data)
	}
	// The dumped file must run.
	out.Reset()
	if err := run([]string{"-scenario", path, "-duration", "45s"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario        markov-sessions") {
		t.Fatalf("file-loaded scenario did not run:\n%s", out.String())
	}
}

func TestScenarioUsesSpecHorizonByDefault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.json")
	spec := `{"name":"tiny","protocol":"dcpp","horizon":"30s","population":{"static":{"cps":2,"spread":"2s"}}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "simulated       30s") {
		t.Fatalf("spec horizon not used:\n%s", out.String())
	}
}

func TestScenarioKillAtComposes(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-scenario", "heavy-tail", "-duration", "90s", "-kill-at", "60s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "crash detection") {
		t.Fatalf("missing detection summary:\n%s", out.String())
	}
}

func TestScenarioFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown scenario", []string{"-scenario", "no-such-scenario"}},
		{"scenario conflicts with protocol", []string{"-scenario", "fig5-uniform-churn", "-protocol", "sapp"}},
		{"scenario conflicts with cps", []string{"-scenario", "fig5-uniform-churn", "-cps", "5"}},
		{"scenario conflicts with churn", []string{"-scenario", "fig5-uniform-churn", "-churn"}},
		{"scenario conflicts with loss", []string{"-scenario", "fig5-uniform-churn", "-loss", "0.1"}},
		{"dump without scenario", []string{"-dump-scenario", "x.json"}},
		{"loss and ge are exclusive", []string{"-loss", "0.1", "-ge-loss-bad", "0.5"}},
		{"ge probability out of range", []string{"-ge-loss-bad", "1.5", "-ge-good-to-bad", "0.1", "-duration", "10s"}},
		{"ge channel that can never lose", []string{"-ge-loss-bad", "0.5", "-duration", "10s"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err == nil {
				t.Errorf("args %v accepted, want error", c.args)
			}
		})
	}
}

func TestGilbertElliottLossFlags(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-cps", "10", "-duration", "2m",
		"-ge-loss-bad", "0.6", "-ge-loss-good", "0.01",
		"-ge-good-to-bad", "0.05", "-ge-bad-to-good", "0.2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	i := strings.Index(text, "lost ")
	if i < 0 {
		t.Fatalf("missing counters line:\n%s", text)
	}
	var lost int
	if _, err := fmt.Sscanf(text[i:], "lost %d", &lost); err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatalf("Gilbert-Elliott channel lost nothing:\n%s", text)
	}
}

func TestListScenarios(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-scenarios"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig4-mass-leave", "fig5-uniform-churn", "flash-crowd", "markov-sessions", "heavy-tail", "diurnal", "bursty-loss"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list-scenarios missing %q:\n%s", want, out.String())
		}
	}
}
