// Command probebench regenerates every table and figure of the paper's
// evaluation (plus the extension experiments) and writes a Markdown
// report and gnuplot-ready .dat files.
//
// Usage:
//
//	probebench [-scale paper|short] [-seed N] [-out DIR] [-only ID[,ID...]] [-plot]
//	probebench -scenario NAME|FILE [-seed N] [-out DIR] [-plot]
//	probebench -list | -list-scenarios
//
// The defaults reproduce EXPERIMENTS.md: paper scale, seed 2005, output
// under ./out. With -scenario, one declarative scenario (registered name
// or JSON file, see internal/scenario) runs instead of the suite and is
// summarised as a report.
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
	"presence/internal/scenario"
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
		scen  = fs.String("scenario", "", "run one declarative scenario (name or JSON file) instead of the experiment suite")
		lscen = fs.Bool("list-scenarios", false, "list registered scenario names and exit")
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
	if *lscen {
		for _, s := range scenario.All() {
			fmt.Fprintf(out, "%-20s %s\n", s.Name, s.Description)
		}
		return nil
	}
	if *scen != "" {
		return runScenario(fs, out, *scen, *seed, *dir, *plot)
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
		if err := emit(out, rep, *dir, *plot); err != nil {
			return err
		}
		report.WriteString(rep.Format())
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

// runScenario runs one declarative scenario as a report. The suite's
// own flags are rejected rather than ignored: the scenario defines its
// own horizon and is not an experiment id.
func runScenario(fs *flag.FlagSet, out io.Writer, name string, seed uint64, dir string, plot bool) error {
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "scale" || f.Name == "only" {
			conflict = fmt.Errorf("-%s applies to the experiment suite, not to -scenario (the scenario defines its own horizon)", f.Name)
		}
	})
	if conflict != nil {
		return conflict
	}
	spec, err := scenario.Resolve(name)
	if err != nil {
		return err
	}
	rep, err := experiments.ScenarioReport(spec, seed)
	if err != nil {
		return err
	}
	if err := emit(out, rep, dir, plot); err != nil {
		return err
	}
	if dir != "" {
		fmt.Fprintf(out, "series written under %s\n", dir)
	}
	return nil
}

// emit prints one report, plots its series when asked and writes them
// under dir unless dir is empty.
func emit(out io.Writer, rep *experiments.Report, dir string, plot bool) error {
	fmt.Fprintln(out, rep.Format())
	if plot && len(rep.Series) > 0 {
		fmt.Fprintln(out, asciiplot.Render(rep.Series, asciiplot.Options{
			Title: rep.Title, Width: 100, Height: 24,
		}))
	}
	if dir == "" {
		return nil
	}
	return rep.WriteSeries(dir)
}
