package main

import (
	"fmt"
	"runtime"
	"time"

	"presence/internal/scenario"
	"presence/internal/simrun"
	"presence/internal/stats"
)

// sweepScenarios are the paper-scale scenarios a researcher sweeps by
// the hundred: the paper's two dynamics and three extension workloads.
var sweepScenarios = []string{"fig5-uniform-churn", "flash-crowd", "heavy-tail", "bursty-loss", "fig4-mass-leave"}

const (
	simSlice     = 500 * time.Millisecond
	simSetupReps = 1001
	// setupGCEvery: a microsecond-scale set-up is repeated a thousand
	// times and each repetition leaves garbage. Collecting between
	// repetitions, outside the timing, keeps the collector from starting
	// by itself inside one: repetitions that share the processor with a
	// collection take twice as long, and whether they were a third or a
	// half of all decided the median.
	setupGCEvery = 32
)

// simOutcome is what must repeat exactly for a (scenario, seed).
type simOutcome struct {
	executed uint64
	load     stats.Welford
}

func outcomeOf(w *simrun.World) simOutcome {
	return simOutcome{w.Sim().Executed(), w.DeviceLoad().Stats()}
}

func runSimSweep(p params) (*result, error) {
	r := newResult("sim-sweep")
	specs := make([]*scenario.Spec, len(sweepScenarios))
	for i, name := range sweepScenarios {
		s, ok := scenario.ByName(name)
		if !ok {
			return nil, fmt.Errorf("scenario %q is not registered", name)
		}
		specs[i] = s
	}
	build := func(i int) (*simrun.World, error) { return specs[i%len(specs)].World(p.seed + uint64(i)) }

	// Set-up: building the first world of each scenario.
	var setups, builds []float64
	worlds := make([]*simrun.World, len(specs))
	for rep := 0; rep < p.reps(simSetupReps); rep++ {
		if rep%setupGCEvery == 0 {
			runtime.GC()
		}
		start := time.Now()
		for i := range specs {
			t := time.Now()
			w, err := build(i)
			if err != nil {
				return nil, err
			}
			worlds[i] = w
			builds = append(builds, micros(time.Since(t)))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", setups...)
	r.set("heap_mb", float64(liveHeap())/1e6)
	runtime.KeepAlive(worlds)

	// The sweep: worlds round-robin, one goroutine, closed loop.
	firstRuns := make([]simOutcome, len(specs))
	var nsPerEvent, cpuPerEvent []float64
	var events, allocs uint64
	next := 0
	for n := int(time.Duration(p.seconds) * time.Second / simSlice); n > 0; n-- {
		var inRun, inRunCPU time.Duration
		var executed uint64
		allocs += mallocs(func() {
			for start := time.Now(); time.Since(start) < simSlice; next++ {
				w, err := build(next)
				if err != nil {
					panic(err) // the same specs built during set-up
				}
				u0, s0 := cpuTime()
				t := time.Now()
				w.Run(specs[next%len(specs)].Horizon.Std())
				inRun += time.Since(t)
				u1, s1 := cpuTime()
				inRunCPU += u1 - u0 + s1 - s0
				executed += w.Sim().Executed()
				if next < len(firstRuns) {
					firstRuns[next] = outcomeOf(w)
				}
			}
		})
		nsPerEvent = append(nsPerEvent, float64(inRun)/float64(executed))
		cpuPerEvent = append(cpuPerEvent, float64(inRunCPU)/float64(executed))
		events += executed
	}
	r.set("ns_per_op", nsPerEvent...)
	r.set("cpu_ns_per_op", cpuPerEvent...)
	r.Attempted = next

	// Determinism: the first world of each scenario, run again, must
	// execute the same events and see the same device load.
	for i := 0; i < min(next, len(specs)); i++ {
		w, err := build(i)
		if err != nil {
			return nil, err
		}
		w.Run(specs[i].Horizon.Std())
		r.Attempted++
		if got := outcomeOf(w); got != firstRuns[i] {
			r.fail(1, "%s seed %d: second run executed %d events, first %d", specs[i].Name, p.seed+uint64(i), got.executed, firstRuns[i].executed)
		}
	}
	if !p.trace {
		return r, nil
	}

	r.set("simrun.events_per_s", 1e9/r.median("ns_per_op"))
	r.set("simrun.allocs_per_kevent", 1e3*float64(allocs)/float64(events))
	r.set("simrun.world_build_us", builds...)
	simKernelLedger(r, p)
	if err := simEngineLedger(r, p); err != nil {
		return nil, err
	}
	return r, nil
}
