// Command probebench regenerates every table and figure of the paper's
// evaluation (plus the extension experiments) and writes a Markdown
// report and gnuplot-ready .dat files.
//
// Usage:
//
//	probebench [-scale paper|short] [-seed N] [-out DIR] [-only ID[,ID...]] [-plot]
//	probebench -list
//
// The defaults reproduce EXPERIMENTS.md: paper scale, seed 2005, output
// under ./out. One declarative scenario (a registered name or a JSON
// file, see internal/scenario) runs with cmd/probesim instead.
//
// probebench reproduces artefacts; it does not measure the runtime.
// Performance numbers come from the benchmark of record (bench/, run
// with `bash bench/run.sh`), and the conformance, adversarial and fleet
// scale checks are `go test` names in their packages.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"presence/internal/asciiplot"
	"presence/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "probebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("probebench", flag.ContinueOnError)
	var (
		scale = fs.String("scale", "paper", "experiment scale: paper or short")
		seed  = fs.Uint64("seed", 2005, "simulation seed")
		dir   = fs.String("out", "out", "output directory for report.md and .dat series ('' disables)")
		only  = fs.String("only", "", "comma-separated experiment ids (default: all)")
		plot  = fs.Bool("plot", false, "render recorded series as ASCII plots on stdout")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-18s %s (%s)\n", e.ID, e.Title, e.Artefact)
		}
		return nil
	}
	s := experiments.Scale(*scale)
	if !s.Valid() {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	selected := experiments.All()
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Options{Seed: *seed, Scale: s, OutDir: *dir}
	var report strings.Builder
	fmt.Fprintf(&report, "# Reproduction report — seed %d, scale %s\n\n", *seed, s)
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		fmt.Fprintf(out, "==> %s (%s)\n", e.ID, e.Artefact)
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		text := rep.Format()
		fmt.Fprintln(out, text)
		if *plot && len(rep.Series) > 0 {
			fmt.Fprintln(out, asciiplot.Render(rep.Series, asciiplot.Options{
				Title: rep.Title, Width: 100, Height: 24,
			}))
		}
		if *dir != "" {
			if err := rep.WriteSeries(*dir); err != nil {
				return err
			}
		}
		report.WriteString(text)
		report.WriteString("\n")
		fmt.Fprintf(out, "    (%s)\n\n", time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(out, "all experiments done in %s\n", time.Since(start).Round(time.Millisecond))
	if *dir == "" {
		return nil
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*dir, "report.md")
	if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "report written to %s\n", path)
	return nil
}
