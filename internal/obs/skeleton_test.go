package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// skeleton masks an exposition's sample values: comment lines (HELP,
// TYPE) stay verbatim, sample lines keep their series name and labels.
// What is left is the scrape's shape — family order, help text, types
// and bucket layout — which must not move when the way the families are
// declared does.
func skeleton(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsSkeletonGolden pins /metrics family by family against the
// exposition captured before the counter table existed (PR 12): same
// families, same order, same TYPE and HELP — except
// fleet_bad_frames_total's HELP, corrected to what BadFrames counts.
func TestMetricsSkeletonGolden(t *testing.T) {
	srv, _ := testPlane(t)
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got := skeleton(sb.String())
	golden := filepath.Join("testdata", "metrics_skeleton.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics skeleton differs from golden at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics skeleton has %d lines, golden %d", len(gl), len(wl))
	}
}
