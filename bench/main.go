// Command bench is the presence benchmark of record: seven named
// workloads over the real runtime, the simulator and the conformance
// harness, every number taken from outside the program under test.
// README.md is the catalogue; BENCHMARK.json is the pipeline's copy.
//
//	bash bench/run.sh -seed 2005                 every workload untraced, end-to-end metrics
//	bash bench/run.sh -seed 2005 -trace          every workload traced, per-layer metrics
//	bash bench/run.sh -repeat 2                  two untraced sets, compared against the bounds
//	bash bench/run.sh -workload hot-plain -seconds 10 -trace 0   one run, result JSON on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// params is what one run of one workload is given. Only seed-derived
// inputs reach the program under test.
type params struct {
	seed    uint64
	seconds int  // length of the measured window
	cps     int  // control points on the udp-* fleets
	trace   bool // install the span-recording wrappers, report per-layer metrics
	spans   string
	// short is the smoke test's sizing: one set-up, a tenth of the
	// micro-timing calls. Its numbers mean nothing.
	short bool
}

// reps is how many times a set-up or a micro-timing is repeated.
func (p params) reps(n int) int {
	if p.short {
		return 1
	}
	return n
}

// calls is how many calls one micro-timing repetition makes.
func (p params) calls(n int) int {
	if p.short {
		return n / 10
	}
	return n
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Skipped   string             `json:"skipped,omitempty"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]summary{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// set records a metric from its per-slice (or per-call) values.
func (r *result) set(name string, values ...float64) { r.Metrics[name] = summarise(values) }

func (r *result) median(name string) float64 { return r.Metrics[name].Median }

// normaliseArgs lets a boolean flag take its value as the next
// argument ("--trace 0"), the form the pipeline uses, beside Go's
// "-trace" and "-trace=false".
func normaliseArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		only     = fs.String("workload", "", "run this workload only and print its result JSON as the last line (default: all)")
		seed     = fs.Uint64("seed", 2005, "workload seed: CP ids, join order, admin targets, scenario seeds")
		seconds  = fs.Int("seconds", 10, "length of each workload's measured window")
		trace    = fs.Bool("trace", false, "record spans and report the per-layer metrics instead of the end-to-end ones")
		repeat   = fs.Int("repeat", 1, "run the set this many times; with 2 or more, compare the medians against the bounds")
		jsonPath = fs.String("json", "", "also write fingerprint, seed and every metric's median, quartiles and slice values here")
		spans    = fs.String("spans", "", "with -trace, write the recorded spans of the last udp-* workload here as CSV")
		child    = fs.Bool("child", false, "internal: run -workload in this process and print the full result as the last line")
	)
	fs.Parse(normaliseArgs(os.Args[1:])) //nolint:errcheck // ExitOnError
	if *seconds < 1 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, and there are no positional arguments")
		os.Exit(2)
	}
	set := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			os.Exit(2)
		}
		set = []workloadDef{w}
	}
	p := params{seed: *seed, seconds: *seconds, cps: 5000, trace: *trace, spans: *spans}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	if *child {
		r, err := set[0].run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", set[0].Name, err)
			os.Exit(1)
		}
		printResult(r, defs)
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // plain numbers and strings always marshal
		}
		fmt.Println(string(b))
		return
	}

	// Every run of a workload gets a process of its own, as the pipeline
	// gives it: live heap, set-up time and the state of pools and caches
	// all depend on what the process did before.
	fp := fingerprint()
	fmt.Printf("# %s\n# seed %d, %d s windows, traced %v\n", fp, p.seed, p.seconds, p.trace)
	var sets [][]*result
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		var results []*result
		for _, w := range set {
			r, err := runChild(w.Name, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			failed = failed || r.Failed > 0
			results = append(results, r)
		}
		sets = append(sets, results)
	}
	if *repeat >= 2 && !compareSets(sets) {
		failed = true
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, fp, p, sets); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *only != "" {
		// The pipeline's form: one workload, one JSON object as the last line.
		last := sets[len(sets)-1][0]
		if last.Skipped != "" {
			os.Exit(1)
		}
		fmt.Println(contractJSON(last, defs))
		return
	}
	if failed {
		os.Exit(1)
	}
}

// runChild runs one workload once in a fresh copy of this program,
// passes its report through and returns its result.
func runChild(name string, p params) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(p.seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace="+strconv.FormatBool(p.trace), "-spans", p.spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	report, last, _ := strings.Cut(strings.TrimSuffix(string(out), "\n"), "\n{")
	fmt.Println(report)
	r := &result{}
	if err := json.Unmarshal([]byte("{"+last), r); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return r, nil
}

// printResult prints one workload's metrics as "workload metric value
// unit", with quartiles and sample count beside each median.
func printResult(r *result, defs []metricDef) {
	if r.Skipped != "" {
		fmt.Printf("%s skipped: %s\n", r.Workload, r.Skipped)
		return
	}
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-12s %-28s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", r.Workload, d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("%-12s %-28s %14d\n%-12s %-28s %14d\n", r.Workload, "ops_attempted", r.Attempted, r.Workload, "ops_failed", r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("%-12s FAILED  %s\n", r.Workload, f)
	}
	for _, w := range r.Warnings {
		fmt.Printf("%-12s warning %s\n", r.Workload, w)
	}
}

// contractJSON renders the one-line result the pipeline reads: every
// declared metric of the run's kind, 0 where the workload does not
// exercise the layer.
func contractJSON(r *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{r.median(d.Name), d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// compareSets is the noise self-check: for every end-to-end metric of
// every workload it prints the medians of the first and the last set,
// their relative difference and the bound, and reports whether every
// pair agrees within its bound.
func compareSets(sets [][]*result) bool {
	first, last := sets[0], sets[len(sets)-1]
	ok := true
	fmt.Println("# repeat check: workload metric first last diff bound")
	for i, a := range first {
		b := last[i]
		if a.Skipped != "" || b.Skipped != "" {
			continue
		}
		for _, d := range endToEnd {
			x, y := a.median(d.Name), b.median(d.Name)
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			verdict := "ok"
			if diff > d.Bound || diff < -d.Bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %+7.2f%% %5.0f%% %s\n", a.Workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

// writeJSON writes what a later compare tool needs without re-deriving
// anything: the fingerprint, the seed, and per workload every metric's
// median, quartiles, sample count and slice values.
func writeJSON(path, fp string, p params, sets [][]*result) error {
	doc := struct {
		Fingerprint string      `json:"fingerprint"`
		Seed        uint64      `json:"seed"`
		Seconds     int         `json:"seconds"`
		Traced      bool        `json:"traced"`
		EndToEnd    []metricDef `json:"end_to_end"`
		Sets        [][]*result `json:"sets"`
	}{fp, p.seed, p.seconds, p.trace, endToEnd, sets}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint names the machine and toolchain: numbers compare only
// between runs whose fingerprints are equal.
func fingerprint() string {
	cpu := "unknown-cpu"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown-kernel"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu %q nproc %d gomaxprocs %d kernel %s %s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
