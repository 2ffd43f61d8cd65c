// Command probebench regenerates every table and figure of the paper's
// evaluation (plus the extension experiments) and writes a Markdown
// report and gnuplot-ready .dat files.
//
// Usage:
//
//	probebench [-scale paper|short] [-seed N] [-out DIR] [-only ID[,ID...]] [-plot] [-json [PATH]]
//	           [-fleet] [-fleet-cps N] [-fleet-shards N] [-fleet-devices N] [-fleet-window D]
//	           [-fleet-rate F] [-fleet-single] [-fleet-reuseport] [-fleet-sweep SHARDSxCPSxRATE[s][m][r],...]
//	           [-fleet-scaling SHARDS[-SHARDS...]xCPSxRATE[s][m][r][@P],...] [-fleet-profile DIR]
//	           [-conformance] [-conformance-seed N] [-conformance-scenario NAME]
//	           [-adversarial] [-adversarial-seed N]
//	probebench -scenario NAME|FILE [-seed N] [-out DIR] [-plot]
//	probebench -compare OLD.json NEW.json [-compare-max-slowdown F] [-compare-max-alloc-growth F]
//	probebench -list | -list-scenarios
//
// The defaults reproduce EXPERIMENTS.md: paper scale, seed 2005, output
// under ./out. With -json, a machine-readable snapshot of the simulator's
// raw throughput (events/sec, allocs/op from the Fig. 5 churn scenario)
// and of every experiment metric is written to PATH, or to the next free
// BENCH_<n>.json in the working directory when PATH is empty — the
// cross-PR performance trajectory (every -json snapshot also carries a
// "shard_hot_path" section: BenchmarkShardHotPath's ns and allocs per
// op for the batch and single-datagram paths, gated by -compare, an
// "observability" section measuring the hot path with the telemetry
// plane on vs off — -compare requires the metrics-on side to stay at 0
// allocs/op — and an "auth" section measuring it with wire v2 frame
// authentication (AES-CMAC tags signed and verified per exchange) on vs
// off, gated the same way: the authenticated side must also stay at 0
// allocs/op). With
// -fleet, the internal/fleet loopback scale harness also runs (10k
// control points against loopback DCPP devices by default; -fleet-rate
// switches to the high-rate naive mode) and its measurements land in
// the snapshot's "fleet.scale" section; -fleet-sweep appends high-rate
// entries ("s" = single-datagram path, "m" = memnet transport, "r" =
// SO_REUSEPORT shared-port layout) to "fleet.sweep". -fleet-scaling runs
// the multi-core scaling study: each spec names a list of shard counts
// ("1-2-4"), CPs and per-CP rate, with the same suffix letters plus
// "@P" to pin GOMAXPROCS, and every shard count runs once; the runs and
// the derived shards→packets/s speedup curve land in the snapshot's
// "fleet.scaling" section, which -compare re-gates (every run must keep
// all its CPs alive with zero decode errors). -fleet-profile writes
// mutex and block profiles covering the fleet runs to DIR, for auditing
// shard-loop contention. With -conformance, the simulator-vs-fleet
// differential battery (internal/conformance) runs and its results land
// in the snapshot's "conformance" section; any failing case makes the
// command exit non-zero. With -adversarial, the adversarial battery
// (internal/conformance's adv-* scenarios) runs twice — hardened and
// unhardened — followed by the adv-auth-* battery (frame tampering,
// forged tags, tag stripping, version downgrade) with authentication
// on and off, and all four sides land in the snapshot's "adversarial"
// section; a hardened or authenticated case with any false verdict
// exits non-zero, and -compare re-gates both when diffing snapshots.
// With -scenario,
// one declarative scenario
// (registered name or JSON file, see internal/scenario) runs instead of
// the suite and is summarised as a report. With -compare, two previously
// written snapshots are diffed and the command exits non-zero on a
// throughput or allocation regression beyond the configured limits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"presence/internal/asciiplot"
	"presence/internal/conformance"
	"presence/internal/experiments"
	"presence/internal/fleet"
	"presence/internal/memnet"
	"presence/internal/scenario"
	"presence/internal/simrun"
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
		emit  = fs.Bool("json", false, "write benchmark metrics to -jsonpath (or the next free BENCH_<n>.json)")
		jpath = fs.String("jsonpath", "", "path for the -json snapshot ('' = auto-numbered BENCH_<n>.json)")
		scen  = fs.String("scenario", "", "run one declarative scenario (name or JSON file) instead of the experiment suite")
		lscen = fs.Bool("list-scenarios", false, "list registered scenario names and exit")

		fleetRun     = fs.Bool("fleet", false, "also run the fleet loopback scale harness (results land in the -json snapshot)")
		fleetCPs     = fs.Int("fleet-cps", 10_000, "control points for -fleet")
		fleetShards  = fs.Int("fleet-shards", 0, "CP-fleet shard count for -fleet (0 = GOMAXPROCS)")
		fleetDevices = fs.Int("fleet-devices", 8, "loopback devices for -fleet")
		fleetWindow  = fs.Duration("fleet-window", 5*time.Second, "steady-state measurement window for -fleet")
		fleetRate    = fs.Float64("fleet-rate", 0, "per-CP probe budget (probes/s) for -fleet: high-rate naive mode instead of DCPP (0 = DCPP)")
		fleetSingle  = fs.Bool("fleet-single", false, "run -fleet on the one-datagram-per-syscall fallback path")
		fleetReuse   = fs.Bool("fleet-reuseport", false, "run -fleet on the SO_REUSEPORT shared-port layout (kernel flow-hash demux across shard sockets)")
		fleetSweep   = fs.String("fleet-sweep", "", "comma-separated high-rate entries SHARDSxCPSxRATE[s][m][r] (s = single-datagram path, m = memnet transport, r = SO_REUSEPORT), run after -fleet and recorded in the snapshot's fleet sweep")
		fleetScaling = fs.String("fleet-scaling", "", "comma-separated scaling specs SHARDS[-SHARDS...]xCPSxRATE[s][m][r][@P] (@P pins GOMAXPROCS); each shard count runs once and the shards→packets/s curve lands in the snapshot's fleet scaling section")
		fleetProfile = fs.String("fleet-profile", "", "directory for mutex/block profiles covering the fleet runs ('' disables)")

		confRun  = fs.Bool("conformance", false, "also run the simulator-vs-fleet conformance battery (internal/conformance); a failing case exits non-zero")
		confSeed = fs.Uint64("conformance-seed", 2005, "seed for -conformance")
		confOnly = fs.String("conformance-scenario", "", "run a single conformance case by scenario name (default: all)")

		advRun  = fs.Bool("adversarial", false, "also run the adversarial battery hardened and unhardened, plus the adv-auth-* battery authenticated and not; a hardened or authenticated false verdict exits non-zero")
		advSeed = fs.Uint64("adversarial-seed", 2005, "seed for -adversarial")

		compare  = fs.Bool("compare", false, "compare two BENCH_<n>.json snapshots (probebench -compare OLD NEW) and exit non-zero on regression")
		cmpSlow  = fs.Float64("compare-max-slowdown", 1.0, "-compare: max relative ns/op growth (1.0 = +100%; 0 disables the wall-time gate — it is machine-dependent)")
		cmpAlloc = fs.Float64("compare-max-alloc-growth", 0.10, "-compare: max relative allocs/op growth (machine-independent; the strict gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		paths := fs.Args()
		if len(paths) != 2 {
			return fmt.Errorf("-compare needs exactly two snapshot paths, got %d", len(paths))
		}
		return runCompare(out, paths[0], paths[1], *cmpSlow, *cmpAlloc)
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
		explicit := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, conflicting := range []string{"scale", "only", "json", "jsonpath", "fleet", "fleet-cps", "fleet-shards", "fleet-devices", "fleet-window", "fleet-rate", "fleet-single", "fleet-reuseport", "fleet-sweep", "fleet-scaling", "fleet-profile", "conformance", "conformance-seed", "conformance-scenario", "adversarial", "adversarial-seed"} {
			if explicit[conflicting] {
				return fmt.Errorf("-%s applies to the experiment suite, not to -scenario (the scenario defines its own horizon)", conflicting)
			}
		}
		spec, err := scenario.Resolve(*scen)
		if err != nil {
			return err
		}
		rep, err := experiments.ScenarioReport(spec, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep.Format())
		if *plot && len(rep.Series) > 0 {
			fmt.Fprintln(out, asciiplot.Render(rep.Series, asciiplot.Options{
				Title: rep.Title, Width: 100, Height: 24,
			}))
		}
		if *dir != "" {
			if err := rep.WriteSeries(*dir); err != nil {
				return err
			}
			fmt.Fprintf(out, "series written under %s\n", *dir)
		}
		return nil
	}
	s := experiments.Scale(*scale)
	if !s.Valid() {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	opts := experiments.Options{Seed: *seed, Scale: s, OutDir: *dir}

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
	// Resolve the conformance battery up front: a typo in
	// -conformance-scenario must not surface only after the experiment
	// suite has run for minutes.
	var confCases []conformance.Case
	if *confRun {
		confCases = conformance.DefaultCases()
		if *confOnly != "" {
			var picked []conformance.Case
			for _, c := range confCases {
				if c.Scenario == *confOnly {
					picked = append(picked, c)
				}
			}
			if len(picked) == 0 {
				return fmt.Errorf("unknown conformance scenario %q (battery: %v)", *confOnly, conformanceNames(confCases))
			}
			confCases = picked
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# Reproduction report — seed %d, scale %s\n\n", *seed, s)
	start := time.Now()
	metricsByExperiment := make(map[string]map[string]float64)
	for _, e := range selected {
		t0 := time.Now()
		fmt.Fprintf(out, "==> %s (%s)\n", e.ID, e.Artefact)
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if opts.OutDir != "" {
			if err := rep.WriteSeries(opts.OutDir); err != nil {
				return err
			}
		}
		ms := make(map[string]float64, len(rep.Metrics))
		for _, m := range rep.Metrics {
			ms[m.Name] = m.Got
		}
		metricsByExperiment[e.ID] = ms
		text := rep.Format()
		fmt.Fprintln(out, text)
		report.WriteString(text)
		report.WriteString("\n")
		if *plot && len(rep.Series) > 0 {
			fmt.Fprintln(out, asciiplot.Render(rep.Series, asciiplot.Options{
				Title: rep.Title, Width: 100, Height: 24,
			}))
		}
		fmt.Fprintf(out, "    (%s)\n\n", time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(out, "all experiments done in %s\n", time.Since(start).Round(time.Millisecond))
	if *fleetProfile != "" {
		// Profile only the fleet runs: contention in the shard loops is
		// what the audit is after, not the single-threaded simulator's.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(int(100 * time.Microsecond))
		defer func() {
			runtime.SetMutexProfileFraction(0)
			runtime.SetBlockProfileRate(0)
		}()
	}
	var fleetSec *fleetSection
	if *fleetRun {
		fmt.Fprintf(out, "==> fleet loopback scale (%d CPs, %d shard(s), %d devices, %v window)\n",
			*fleetCPs, *fleetShards, *fleetDevices, *fleetWindow)
		res, err := fleet.LoopbackScale(fleet.ScaleOptions{
			CPs:                 *fleetCPs,
			Shards:              *fleetShards,
			Devices:             *fleetDevices,
			Window:              *fleetWindow,
			ProbeHz:             *fleetRate,
			ForceSingleDatagram: *fleetSingle,
			ReusePort:           *fleetReuse,
		})
		if err != nil {
			return fmt.Errorf("fleet scale: %w", err)
		}
		fleetSec = &fleetSection{Scale: &res}
		fmt.Fprintf(out, "    %d CPs steady on %d shard goroutine(s) after %.2fs; %.1f probes/s (budget %.1f/s); %.0f packets/s; batch fill %.1f in / %.1f out; wheel depth %d; %d goroutines total\n",
			res.SteadyCPs, res.Shards, res.JoinSeconds,
			res.SteadyProbesPerSec, res.BudgetProbesPerSec, res.SteadyPacketsPerSec,
			res.BatchFillMeanIn, res.BatchFillMeanOut,
			res.WheelDepth, res.Goroutines)
	}
	if *fleetSweep != "" {
		entries, err := parseFleetSweep(*fleetSweep)
		if err != nil {
			return err
		}
		if fleetSec == nil {
			fleetSec = &fleetSection{}
		}
		for _, opts := range entries {
			res, err := runSweepEntry(out, "fleet sweep", opts, *fleetWindow)
			if err != nil {
				return fmt.Errorf("fleet sweep: %w", err)
			}
			fleetSec.Sweep = append(fleetSec.Sweep, res)
		}
	}
	if *fleetScaling != "" {
		specs, err := parseFleetScaling(*fleetScaling)
		if err != nil {
			return err
		}
		if fleetSec == nil {
			fleetSec = &fleetSection{}
		}
		scaling := &scalingSection{}
		for _, e := range specs {
			res, err := runSweepEntry(out, "fleet scaling", e, *fleetWindow)
			if err != nil {
				return fmt.Errorf("fleet scaling: %w", err)
			}
			scaling.Runs = append(scaling.Runs, res)
		}
		scaling.Curve = scalingCurve(scaling.Runs)
		for _, p := range scaling.Curve {
			fmt.Fprintf(out, "    scaling: %d shard(s) @ GOMAXPROCS %d: %.0f packets/s (%.2fx vs %d shard(s)), imbalance %.2f, %.2f syscalls/packet\n",
				p.Shards, p.GoMaxProcs, p.PacketsPerSec, p.Speedup, p.BaseShards, p.ShardImbalance, p.SyscallsPerPacket)
		}
		fleetSec.Scaling = scaling
	}
	if *fleetProfile != "" && fleetSec != nil {
		if err := writeFleetProfiles(*fleetProfile); err != nil {
			return err
		}
		fmt.Fprintf(out, "mutex/block profiles written under %s\n", *fleetProfile)
	}
	var confResults []*conformance.Result
	if *confRun {
		failed := 0
		for _, c := range confCases {
			fmt.Fprintf(out, "==> conformance %s (seed %d)\n", c.Scenario, *confSeed)
			t0 := time.Now()
			res, err := conformance.Run(c, *confSeed)
			if err != nil {
				return fmt.Errorf("conformance %s: %w", c.Scenario, err)
			}
			confResults = append(confResults, res)
			fmt.Fprintln(out, res.Format())
			fmt.Fprintf(out, "    (%s)\n\n", time.Since(t0).Round(time.Millisecond))
			report.WriteString(res.Format())
			report.WriteString("\n")
			if !res.Pass {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("conformance: %d of %d cases failed", failed, len(confCases))
		}
	}
	var advSec *adversarialSection
	if *advRun {
		advSec = &adversarialSection{}
		for _, harden := range []bool{true, false} {
			mode := "hardened"
			if !harden {
				mode = "unhardened"
			}
			fmt.Fprintf(out, "==> adversarial battery, %s (seed %d)\n", mode, *advSeed)
			t0 := time.Now()
			results, err := conformance.RunAdversarialSuite(*advSeed, harden)
			if err != nil {
				return fmt.Errorf("adversarial (%s): %w", mode, err)
			}
			for _, res := range results {
				fmt.Fprintln(out, res.Format())
				report.WriteString(res.Format())
				report.WriteString("\n")
			}
			fmt.Fprintf(out, "    (%s)\n\n", time.Since(t0).Round(time.Millisecond))
			if harden {
				advSec.Hardened = results
			} else {
				advSec.Unhardened = results
			}
		}
		for _, auth := range []bool{true, false} {
			mode := "authenticated"
			if !auth {
				mode = "unauthenticated"
			}
			fmt.Fprintf(out, "==> auth adversarial battery, %s (seed %d)\n", mode, *advSeed)
			t0 := time.Now()
			results, err := conformance.RunAuthAdversarialSuite(*advSeed, auth)
			if err != nil {
				return fmt.Errorf("auth adversarial (%s): %w", mode, err)
			}
			for _, res := range results {
				fmt.Fprintln(out, res.Format())
				report.WriteString(res.Format())
				report.WriteString("\n")
			}
			fmt.Fprintf(out, "    (%s)\n\n", time.Since(t0).Round(time.Millisecond))
			if auth {
				advSec.AuthAuthenticated = results
			} else {
				advSec.AuthUnauthenticated = results
			}
		}
		if fails := append(gateAdversarial(advSec.Hardened), gateAdversarial(advSec.AuthAuthenticated)...); len(fails) > 0 {
			return fmt.Errorf("adversarial: %s", strings.Join(fails, "; "))
		}
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(opts.OutDir, "report.md")
		if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", path)
	}
	if *emit {
		path, err := writeJSONSnapshot(*jpath, *seed, s, metricsByExperiment, fleetSec, confResults, advSec)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "benchmark snapshot written to %s\n", path)
	}
	return nil
}

// conformanceNames lists the battery's scenario names.
func conformanceNames(cases []conformance.Case) []string {
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.Scenario
	}
	return names
}

// sweepEntry is one parsed -fleet-sweep or -fleet-scaling element.
type sweepEntry struct {
	opts   fleet.ScaleOptions
	memnet bool
}

// trimSweepSuffixes strips the trailing option letters shared by the
// sweep and scaling grammars: "s" single-datagram, "m" memnet
// transport, "r" SO_REUSEPORT layout (with memnet: shard-aware routing
// over distinct in-memory addresses — the flow-hash demux itself is
// kernel behaviour, emulated and pinned by the equivalence tests).
func trimSweepSuffixes(part string, e *sweepEntry) string {
	for {
		switch {
		case strings.HasSuffix(part, "s"):
			e.opts.ForceSingleDatagram = true
			part = strings.TrimSuffix(part, "s")
		case strings.HasSuffix(part, "m"):
			e.memnet = true
			part = strings.TrimSuffix(part, "m")
		case strings.HasSuffix(part, "r"):
			e.opts.ReusePort = true
			part = strings.TrimSuffix(part, "r")
		default:
			return part
		}
	}
}

// parseFleetSweep parses "SHARDSxCPSxRATE[s][m][r],..." — e.g.
// "1x20000x10,1x20000x10s,1x20000x10m,2x20000x10r": shards, CPs,
// probes/s per CP, on the batch or single path over kernel UDP or
// memnet, optionally on the SO_REUSEPORT shared-port layout.
func parseFleetSweep(spec string) ([]sweepEntry, error) {
	var out []sweepEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e := sweepEntry{}
		part = trimSweepSuffixes(part, &e)
		var rate float64
		var shards, cps int
		if _, err := fmt.Sscanf(part, "%dx%dx%g", &shards, &cps, &rate); err != nil {
			return nil, fmt.Errorf("-fleet-sweep entry %q: want SHARDSxCPSxRATE[s][m][r]: %v", part, err)
		}
		e.opts.Shards, e.opts.CPs, e.opts.ProbeHz = shards, cps, rate
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet-sweep %q holds no entries", spec)
	}
	return out, nil
}

// parseFleetScaling parses "SHARDS[-SHARDS...]xCPSxRATE[s][m][r][@P],..."
// — e.g. "1-2-4x20000x25r@4": run 1, 2 and 4 shards of 20k CPs at 25
// probes/s each on the SO_REUSEPORT layout with GOMAXPROCS pinned to 4.
// Each shard count becomes one scaling run.
func parseFleetScaling(spec string) ([]sweepEntry, error) {
	var out []sweepEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		proto := sweepEntry{}
		if at := strings.LastIndexByte(part, '@'); at >= 0 {
			procs, err := strconv.Atoi(part[at+1:])
			if err != nil || procs < 1 {
				return nil, fmt.Errorf("-fleet-scaling entry %q: @P needs a positive GOMAXPROCS", part)
			}
			proto.opts.GoMaxProcs = procs
			part = part[:at]
		}
		part = trimSweepSuffixes(part, &proto)
		fields := strings.SplitN(part, "x", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("-fleet-scaling entry %q: want SHARDS[-SHARDS...]xCPSxRATE[s][m][r][@P]", part)
		}
		cps, err := strconv.Atoi(fields[1])
		if err != nil || cps < 1 {
			return nil, fmt.Errorf("-fleet-scaling entry %q: bad CP count %q", part, fields[1])
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("-fleet-scaling entry %q: bad rate %q", part, fields[2])
		}
		for _, s := range strings.Split(fields[0], "-") {
			shards, err := strconv.Atoi(s)
			if err != nil || shards < 1 {
				return nil, fmt.Errorf("-fleet-scaling entry %q: bad shard count %q", part, s)
			}
			e := proto
			e.opts.Shards, e.opts.CPs, e.opts.ProbeHz = shards, cps, rate
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet-scaling %q holds no entries", spec)
	}
	return out, nil
}

// runSweepEntry runs one high-rate LoopbackScale entry and narrates it.
func runSweepEntry(out io.Writer, what string, e sweepEntry, window time.Duration) (fleet.ScaleResult, error) {
	transport := "udp"
	if e.memnet {
		transport = "memnet"
		net := memnet.New(memnet.Faults{})
		e.opts.Transport = fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
	}
	e.opts.Window = window
	fmt.Fprintf(out, "==> %s %dx%dx%g %s single=%v reuseport=%v gomaxprocs=%d\n",
		what, e.opts.Shards, e.opts.CPs, e.opts.ProbeHz, transport, e.opts.ForceSingleDatagram, e.opts.ReusePort, e.opts.GoMaxProcs)
	res, err := fleet.LoopbackScale(e.opts)
	if err != nil {
		return res, err
	}
	res.Transport = transport
	fmt.Fprintf(out, "    %d CPs steady; %.0f probes/s of %.0f offered; %.0f packets/s; batch fill %.1f in / %.1f out; syscalls %d in / %d out; imbalance %.2f; handoffs %d in / %d out\n",
		res.SteadyCPs, res.SteadyProbesPerSec, res.BudgetProbesPerSec, res.SteadyPacketsPerSec,
		res.BatchFillMeanIn, res.BatchFillMeanOut, res.SyscallsIn, res.SyscallsOut,
		res.ShardImbalance, res.HandoffsIn, res.HandoffsOut)
	return res, nil
}

// writeFleetProfiles dumps the accumulated mutex and block profiles,
// which at this point cover every fleet scale/sweep/scaling run.
func writeFleetProfiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"mutex", "block"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, name+".pb.gz"))
		if err != nil {
			return err
		}
		err = p.WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s profile: %w", name, err)
		}
	}
	return nil
}

// benchSnapshot is the schema of the BENCH_<n>.json files: one throughput
// measurement of the raw event loop plus every experiment metric (and,
// with -fleet, the UDP fleet scale measurements), so PRs can be compared
// mechanically.
type benchSnapshot struct {
	Generated  string          `json:"generated"`
	Seed       uint64          `json:"seed"`
	Scale      string          `json:"scale"`
	Throughput throughputStats `json:"throughput"`
	// HotPath pins the shard packet path (BenchmarkShardHotPath, batch
	// and single-datagram variants); -compare gates its allocs/op like
	// the simulator's.
	HotPath *hotPathSection `json:"shard_hot_path,omitempty"`
	// Observability measures what the telemetry plane (per-shard
	// histograms + flight recorder) costs on the hot path; -compare
	// requires the metrics-on side to stay at 0 allocs/op.
	Observability *observabilitySection `json:"observability,omitempty"`
	// Auth measures what wire v2 frame authentication (AES-128-CMAC
	// tags, sign + verify per exchange) costs on the hot path; -compare
	// requires the auth-on side to stay at 0 allocs/op.
	Auth        *authSection                  `json:"auth,omitempty"`
	Fleet       *fleetSection                 `json:"fleet,omitempty"`
	Conformance []*conformance.Result         `json:"conformance,omitempty"`
	Adversarial *adversarialSection           `json:"adversarial,omitempty"`
	Metrics     map[string]map[string]float64 `json:"metrics"`
}

// adversarialSection is the snapshot's robustness block: the adv-*
// battery run with the fleet defenses on and off, and the adv-auth-*
// battery (frame tampering, forged tags, tag stripping, version
// downgrade) with frame authentication on and off. The hardened and
// authenticated sides are gates (zero false verdicts, re-checked by
// -compare); the unhardened/unauthenticated sides document what the
// attacks do to an undefended runtime.
type adversarialSection struct {
	Hardened            []*conformance.AdvResult `json:"hardened,omitempty"`
	Unhardened          []*conformance.AdvResult `json:"unhardened,omitempty"`
	AuthAuthenticated   []*conformance.AdvResult `json:"auth_authenticated,omitempty"`
	AuthUnauthenticated []*conformance.AdvResult `json:"auth_unauthenticated,omitempty"`
}

// gateAdversarial re-derives the hardened pass condition from a
// snapshot section, so -compare gates committed snapshots the same way
// the live run was gated.
func gateAdversarial(hardened []*conformance.AdvResult) []string {
	var fails []string
	for _, r := range hardened {
		if r.Adv.FalseAbsent != 0 || r.Adv.FalsePresent != 0 || len(r.Violations) != 0 || !r.Pass {
			fails = append(fails, fmt.Sprintf("hardened %s: %d false-ABSENT, %d false-PRESENT, %d violations",
				r.Scenario, r.Adv.FalseAbsent, r.Adv.FalsePresent, len(r.Violations)))
		}
	}
	return fails
}

// fleetSection is the snapshot's fleet block: the protocol-budget
// scale run, any high-rate sweep entries, and the multi-core scaling
// study. (Snapshots before PR 5 stored a bare ScaleResult here; old
// files still load — -compare only gates the sections present.)
type fleetSection struct {
	Scale   *fleet.ScaleResult  `json:"scale,omitempty"`
	Sweep   []fleet.ScaleResult `json:"sweep,omitempty"`
	Scaling *scalingSection     `json:"scaling,omitempty"`
}

// scalingSection is the multi-core scaling study: the raw runs plus the
// derived shards→packets/s curve. Speedups are relative to the
// lowest-shard-count run of the same (CPs, rate, path, transport,
// GOMAXPROCS pin) family, so one section can carry several families.
type scalingSection struct {
	Runs  []fleet.ScaleResult `json:"runs"`
	Curve []scalingPoint      `json:"curve"`
}

// scalingPoint is one point of the derived curve.
type scalingPoint struct {
	Shards            int     `json:"shards"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	PacketsPerSec     float64 `json:"packets_per_sec"`
	BaseShards        int     `json:"base_shards"`
	Speedup           float64 `json:"speedup"`
	ShardImbalance    float64 `json:"shard_imbalance"`
	SyscallsPerPacket float64 `json:"syscalls_per_packet"`
}

// scalingCurve derives speedups from the raw runs, grouping runs into
// families that differ only in shard count.
func scalingCurve(runs []fleet.ScaleResult) []scalingPoint {
	type base struct {
		shards int
		pps    float64
	}
	family := func(r fleet.ScaleResult) string {
		return fmt.Sprintf("%dx%g|%v|%v|%s|%d", r.CPs, r.ProbeHz, r.SingleDatagram, r.ReusePort, r.Transport, r.GoMaxProcs)
	}
	bases := make(map[string]base)
	for _, r := range runs {
		k := family(r)
		if b, ok := bases[k]; !ok || r.Shards < b.shards {
			bases[k] = base{r.Shards, r.SteadyPacketsPerSec}
		}
	}
	pts := make([]scalingPoint, len(runs))
	for i, r := range runs {
		b := bases[family(r)]
		p := scalingPoint{
			Shards:            r.Shards,
			GoMaxProcs:        r.GoMaxProcs,
			PacketsPerSec:     r.SteadyPacketsPerSec,
			BaseShards:        b.shards,
			ShardImbalance:    r.ShardImbalance,
			SyscallsPerPacket: r.SyscallsPerPacket,
		}
		if b.pps > 0 {
			p.Speedup = r.SteadyPacketsPerSec / b.pps
		}
		pts[i] = p
	}
	return pts
}

// gateScaling re-derives the scaling study's health condition from a
// snapshot section: every run kept all its CPs alive and decoded every
// frame it accepted. Throughput itself is machine-dependent and not
// gated, like the wall-clock side of the simulator comparison.
func gateScaling(sec *scalingSection) []string {
	var fails []string
	for _, r := range sec.Runs {
		if r.SteadyCPs != r.CPs || r.DecodeErrors != 0 {
			fails = append(fails, fmt.Sprintf("scaling %dx%dx%g (%s): %d of %d CPs steady, %d decode errors",
				r.Shards, r.CPs, r.ProbeHz, r.Transport, r.SteadyCPs, r.CPs, r.DecodeErrors))
		}
	}
	return fails
}

// hotPathSection holds the shard hot-path measurements for both I/O
// paths.
type hotPathSection struct {
	Batch  fleet.HotPathStats `json:"batch"`
	Single fleet.HotPathStats `json:"single"`
}

type throughputStats struct {
	// EventsPerSec is simulator events executed per wall-clock second in
	// the Fig. 5 churn scenario (DCPP, 60 simulated seconds per op).
	EventsPerSec float64 `json:"events_per_sec"`
	EventsPerOp  float64 `json:"events_per_op"`
	NsPerOp      int64   `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SimSecPerSec float64 `json:"sim_seconds_per_wall_second"`
}

// measureThroughput reruns BenchmarkSimulationThroughput's scenario under
// testing.Benchmark so the CLI reports the same numbers as `go test
// -bench`.
func measureThroughput() (throughputStats, error) {
	var totalEvents uint64
	var iterations int
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		// Each benchmark attempt starts fresh; only the final attempt's
		// totals survive, matching res.N.
		totalEvents, iterations = 0, b.N
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := simrun.NewWorld(simrun.Config{Protocol: simrun.ProtocolDCPP, Seed: uint64(i)})
			if err != nil {
				benchErr = err
				return
			}
			if err := w.StartChurn(simrun.DefaultUniformChurn()); err != nil {
				benchErr = err
				return
			}
			w.Run(60 * time.Second)
			totalEvents += w.Sim().Executed()
		}
	})
	if benchErr != nil {
		return throughputStats{}, benchErr
	}
	ns := res.NsPerOp()
	st := throughputStats{
		NsPerOp:     ns,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if iterations > 0 {
		// Mean events per op over all iterations, so the ratio against
		// the mean ns/op is consistent (seeds vary per iteration).
		st.EventsPerOp = float64(totalEvents) / float64(iterations)
	}
	if ns > 0 {
		st.EventsPerSec = st.EventsPerOp / (float64(ns) / 1e9)
		st.SimSecPerSec = 60 / (float64(ns) / 1e9)
	}
	return st, nil
}

// benchHotPath runs the shard hot-path harness under testing.Benchmark
// with the given options — the same numbers as `go test -bench
// BenchmarkShardHotPath` for the matching configuration.
func benchHotPath(opts fleet.HotPathOptions) (fleet.HotPathStats, error) {
	var (
		setupErr   error
		cps, perOp int
	)
	res := testing.Benchmark(func(b *testing.B) {
		h, err := fleet.NewHotPathBench(opts)
		if err != nil {
			setupErr = err
			return
		}
		defer h.Close()
		cps, perOp = h.CPs(), h.PacketsPerStep()
		for i := 0; i < 10; i++ {
			h.Step() // warm-up, as in TestShardHotPathZeroAlloc
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Step()
		}
	})
	if setupErr != nil {
		return fleet.HotPathStats{}, setupErr
	}
	st := fleet.HotPathStats{
		CPs:          cps,
		NsPerOp:      res.NsPerOp(),
		AllocsPerOp:  res.AllocsPerOp(),
		BytesPerOp:   res.AllocedBytesPerOp(),
		PacketsPerOp: perOp,
	}
	if ns := res.NsPerOp(); ns > 0 {
		st.PacketsPerSec = float64(perOp) / (float64(ns) / 1e9)
	}
	return st, nil
}

// measureHotPath pins the shard packet path for both I/O paths, with
// telemetry in its default (on) state.
func measureHotPath() (*hotPathSection, error) {
	batch, err := benchHotPath(fleet.HotPathOptions{})
	if err != nil {
		return nil, err
	}
	single, err := benchHotPath(fleet.HotPathOptions{ForceSingleDatagram: true})
	if err != nil {
		return nil, err
	}
	return &hotPathSection{Batch: batch, Single: single}, nil
}

// observabilitySection is the snapshot's telemetry-cost block: the same
// hot-path measurement with the histograms + flight recorder on (the
// default, the shape the 0 allocs/op gate runs) and off, plus the
// derived per-packet overhead. -compare gates the on-side allocations
// at absolute zero — the telemetry plane must never buy observability
// with heap traffic.
type observabilitySection struct {
	MetricsOn  fleet.HotPathStats `json:"metrics_on"`
	MetricsOff fleet.HotPathStats `json:"metrics_off"`
	// OverheadNsPerPacket is (on − off) ns/op over packets/op; negative
	// measurements (noise) are reported as measured, not clamped.
	OverheadNsPerPacket float64 `json:"overhead_ns_per_packet"`
	OverheadPercent     float64 `json:"overhead_percent"`
}

// measureObservability measures the telemetry plane's hot-path cost.
func measureObservability() (*observabilitySection, error) {
	on, err := benchHotPath(fleet.HotPathOptions{})
	if err != nil {
		return nil, err
	}
	off, err := benchHotPath(fleet.HotPathOptions{DisableTelemetry: true})
	if err != nil {
		return nil, err
	}
	sec := &observabilitySection{MetricsOn: on, MetricsOff: off}
	if on.PacketsPerOp > 0 {
		sec.OverheadNsPerPacket = float64(on.NsPerOp-off.NsPerOp) / float64(on.PacketsPerOp)
	}
	if off.NsPerOp > 0 {
		sec.OverheadPercent = 100 * float64(on.NsPerOp-off.NsPerOp) / float64(off.NsPerOp)
	}
	return sec, nil
}

// gateObservability re-derives the telemetry-cost pass condition from a
// snapshot section: the instrumented hot path must stay allocation-free.
func gateObservability(sec *observabilitySection) []string {
	var fails []string
	if sec.MetricsOn.AllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("observability: metrics-on hot path allocates (%d allocs/op, want 0)",
			sec.MetricsOn.AllocsPerOp))
	}
	return fails
}

// authSection is the snapshot's frame-authentication cost block: the
// hot-path measurement with wire v2 AES-CMAC tags required on every frame
// (sign each probe, verify each reply) and without, plus the derived
// per-packet cost of authenticating. -compare gates the auth-on side
// at absolute zero allocations — the MAC must ride the same pooled
// buffers as the rest of the packet path.
type authSection struct {
	AuthOn  fleet.HotPathStats `json:"auth_on"`
	AuthOff fleet.HotPathStats `json:"auth_off"`
	// OverheadNsPerPacket is (on − off) ns/op over packets/op — the cost
	// of one AES-128-CMAC sign plus one verify per probe/reply exchange.
	OverheadNsPerPacket float64 `json:"overhead_ns_per_packet"`
	OverheadPercent     float64 `json:"overhead_percent"`
}

// measureAuth measures what frame authentication costs on the hot path.
func measureAuth() (*authSection, error) {
	on, err := benchHotPath(fleet.HotPathOptions{Auth: true})
	if err != nil {
		return nil, err
	}
	off, err := benchHotPath(fleet.HotPathOptions{})
	if err != nil {
		return nil, err
	}
	sec := &authSection{AuthOn: on, AuthOff: off}
	if on.PacketsPerOp > 0 {
		sec.OverheadNsPerPacket = float64(on.NsPerOp-off.NsPerOp) / float64(on.PacketsPerOp)
	}
	if off.NsPerOp > 0 {
		sec.OverheadPercent = 100 * float64(on.NsPerOp-off.NsPerOp) / float64(off.NsPerOp)
	}
	return sec, nil
}

// gateAuth re-derives the authentication-cost pass condition from a
// snapshot section: the authenticated hot path must stay allocation-free.
func gateAuth(sec *authSection) []string {
	var fails []string
	if sec.AuthOn.AllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("auth: authenticated hot path allocates (%d allocs/op, want 0)",
			sec.AuthOn.AllocsPerOp))
	}
	return fails
}

// writeJSONSnapshot measures throughput and writes the snapshot to path,
// or to the next free BENCH_<n>.json when path is empty.
func writeJSONSnapshot(path string, seed uint64, scale experiments.Scale, metrics map[string]map[string]float64, fleetSec *fleetSection, confResults []*conformance.Result, advSec *adversarialSection) (string, error) {
	tp, err := measureThroughput()
	if err != nil {
		return "", err
	}
	hp, err := measureHotPath()
	if err != nil {
		return "", err
	}
	obsSec, err := measureObservability()
	if err != nil {
		return "", err
	}
	authSec, err := measureAuth()
	if err != nil {
		return "", err
	}
	snap := benchSnapshot{
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Seed:          seed,
		Scale:         string(scale),
		Throughput:    tp,
		HotPath:       hp,
		Observability: obsSec,
		Auth:          authSec,
		Fleet:         fleetSec,
		Conformance:   confResults,
		Adversarial:   advSec,
		Metrics:       metrics,
	}
	if path == "" {
		for n := 1; ; n++ {
			candidate := fmt.Sprintf("BENCH_%d.json", n)
			if _, err := os.Stat(candidate); os.IsNotExist(err) {
				path = candidate
				break
			}
		}
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadSnapshot reads one BENCH_<n>.json file.
func loadSnapshot(path string) (benchSnapshot, error) {
	var snap benchSnapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// runCompare diffs two benchmark snapshots and fails on regressions.
// Allocations per op are deterministic and machine-independent — the
// strict gate. Wall-clock throughput is machine-dependent: comparing a
// committed reference-box snapshot against a CI box only catches
// catastrophic slowdowns, hence the loose default (and 0 to disable).
// Experiment metrics are compared exactly when both snapshots used the
// same seed and scale — informational, since the determinism tests
// already pin them.
func runCompare(out io.Writer, oldPath, newPath string, maxSlow, maxAlloc float64) error {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	growth := func(oldV, newV float64) float64 {
		if oldV <= 0 {
			return 0
		}
		return (newV - oldV) / oldV
	}
	allocGrowth := growth(float64(oldSnap.Throughput.AllocsPerOp), float64(newSnap.Throughput.AllocsPerOp))
	slowdown := growth(float64(oldSnap.Throughput.NsPerOp), float64(newSnap.Throughput.NsPerOp))
	fmt.Fprintf(out, "comparing %s (seed %d, %s) → %s (seed %d, %s)\n\n",
		oldPath, oldSnap.Seed, oldSnap.Scale, newPath, newSnap.Seed, newSnap.Scale)
	fmt.Fprintf(out, "%-16s %14s %14s %9s\n", "throughput", "old", "new", "delta")
	fmt.Fprintf(out, "%-16s %14d %14d %+8.1f%%\n", "ns/op", oldSnap.Throughput.NsPerOp, newSnap.Throughput.NsPerOp, 100*slowdown)
	fmt.Fprintf(out, "%-16s %14d %14d %+8.1f%%\n", "allocs/op", oldSnap.Throughput.AllocsPerOp, newSnap.Throughput.AllocsPerOp, 100*allocGrowth)
	fmt.Fprintf(out, "%-16s %14.0f %14.0f %+8.1f%%\n", "events/op", oldSnap.Throughput.EventsPerOp, newSnap.Throughput.EventsPerOp,
		100*growth(oldSnap.Throughput.EventsPerOp, newSnap.Throughput.EventsPerOp))

	if oldSnap.Seed == newSnap.Seed && oldSnap.Scale == newSnap.Scale {
		shared, differing := 0, 0
		for id, oldMs := range oldSnap.Metrics {
			newMs, ok := newSnap.Metrics[id]
			if !ok {
				continue
			}
			for name, oldV := range oldMs {
				if newV, ok := newMs[name]; ok {
					shared++
					if newV != oldV {
						differing++
						if differing <= 10 {
							fmt.Fprintf(out, "metric %s/%s: %g → %g\n", id, name, oldV, newV)
						}
					}
				}
			}
		}
		fmt.Fprintf(out, "\nexperiment metrics: %d shared, %d differing\n", shared, differing)
	} else {
		fmt.Fprintf(out, "\nexperiment metrics skipped (seed/scale differ)\n")
	}

	var fails []string
	if maxAlloc > 0 && allocGrowth > maxAlloc {
		fails = append(fails, fmt.Sprintf("allocs/op grew %.1f%% (limit %.1f%%)", 100*allocGrowth, 100*maxAlloc))
	}
	if maxSlow > 0 && slowdown > maxSlow {
		fails = append(fails, fmt.Sprintf("ns/op grew %.1f%% (limit %.1f%%)", 100*slowdown, 100*maxSlow))
	}
	// The shard hot path is pinned at 0 allocs/op: with a zero old
	// value a relative-growth gate cannot bite, so any regression at
	// all fails (old snapshots without the section are skipped).
	if oldSnap.HotPath != nil && newSnap.HotPath != nil {
		oldA, newA := oldSnap.HotPath.Batch.AllocsPerOp, newSnap.HotPath.Batch.AllocsPerOp
		fmt.Fprintf(out, "%-16s %14d %14d\n", "hotpath allocs", oldA, newA)
		if maxAlloc > 0 && newA > oldA && float64(newA-oldA) > maxAlloc*float64(max(oldA, 1)) {
			fails = append(fails, fmt.Sprintf("shard hot path allocs/op grew %d → %d", oldA, newA))
		}
	}
	// The observability section is an absolute gate on the new snapshot:
	// the instrumented (default) hot path must stay allocation-free, and
	// its measured overhead is printed for the reader.
	if obs := newSnap.Observability; obs != nil {
		fmt.Fprintf(out, "%-16s %14d %14d  (overhead %+.1f ns/packet, %+.1f%%)\n", "telemetry allocs",
			obs.MetricsOff.AllocsPerOp, obs.MetricsOn.AllocsPerOp,
			obs.OverheadNsPerPacket, obs.OverheadPercent)
		fails = append(fails, gateObservability(obs)...)
	}
	// The auth section is likewise an absolute gate on the new snapshot:
	// signing and verifying every frame must not buy integrity with heap
	// traffic; the measured per-packet cost is printed for the reader.
	if auth := newSnap.Auth; auth != nil {
		fmt.Fprintf(out, "%-16s %14d %14d  (overhead %+.1f ns/packet, %+.1f%%)\n", "auth allocs",
			auth.AuthOff.AllocsPerOp, auth.AuthOn.AllocsPerOp,
			auth.OverheadNsPerPacket, auth.OverheadPercent)
		fails = append(fails, gateAuth(auth)...)
	}
	// The scaling study is likewise an absolute health gate on the new
	// snapshot (all CPs alive, zero decode errors); the curve itself is
	// printed for the reader, not gated — it is machine-dependent.
	if f := newSnap.Fleet; f != nil && f.Scaling != nil {
		fmt.Fprintf(out, "\n%-10s %10s %14s %8s %10s\n", "scaling", "gomaxprocs", "packets/s", "speedup", "imbalance")
		for _, p := range f.Scaling.Curve {
			fmt.Fprintf(out, "%-10d %10d %14.0f %7.2fx %10.2f\n", p.Shards, p.GoMaxProcs, p.PacketsPerSec, p.Speedup, p.ShardImbalance)
		}
		fails = append(fails, gateScaling(f.Scaling)...)
	}
	// The adversarial section is an absolute gate, not a diff: the new
	// snapshot's hardened battery must show zero false verdicts
	// regardless of what (or whether) the old snapshot recorded —
	// snapshots before the robustness PR simply lack the section.
	if adv := newSnap.Adversarial; adv != nil {
		fmt.Fprintf(out, "\n%-18s %6s %14s %14s %10s\n", "adversarial", "mode", "false-absent", "false-present", "shed-rate")
		rows := func(mode string, results []*conformance.AdvResult) {
			for _, r := range results {
				fmt.Fprintf(out, "%-18s %6s %14d %14d %10.2f\n",
					r.Scenario, mode, r.Adv.FalseAbsent, r.Adv.FalsePresent, r.Adv.ShedRate)
			}
		}
		rows("hard", adv.Hardened)
		rows("none", adv.Unhardened)
		rows("auth", adv.AuthAuthenticated)
		rows("plain", adv.AuthUnauthenticated)
		fails = append(fails, gateAdversarial(adv.Hardened)...)
		fails = append(fails, gateAdversarial(adv.AuthAuthenticated)...)
	}
	if len(fails) > 0 {
		return fmt.Errorf("regression: %s", strings.Join(fails, "; "))
	}
	fmt.Fprintln(out, "no regression")
	return nil
}
