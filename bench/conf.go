package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"presence/internal/conformance"
	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/rng"
	"presence/internal/scenario"
	"presence/internal/simrun"
)

// confScenarios are the replayed cases, as the standing battery
// (conformance.DefaultCases) defines them: churn driven through the
// admin HTTP plane, and churn over a burst-loss channel.
var confScenarios = []string{"conf-admin-churn", "conf-bursty-loss"}

const (
	confSetupReps = 301
	confParallel  = 8
)

// knownArtefact marks the one invariant violation that is reported and
// not counted as a failed operation. ROADMAP ("Tier-1 is flaky", item
// 3c) records it failing about one replay in twenty and suspects the
// checker: memnet's tap stamps a probe at delivery while the checker
// marks the removal at call return, so a probe in flight crosses the
// mark. Every other violation fails the run.
const knownArtefact = "after removal"

func confCases(n int) ([]conformance.Case, error) {
	var out []conformance.Case
	for _, name := range confScenarios[:n] {
		found := false
		for _, c := range conformance.DefaultCases() {
			if c.Scenario == name {
				out, found = append(out, c), true
			}
		}
		if !found {
			return nil, fmt.Errorf("conformance battery has no case %q", name)
		}
	}
	return out, nil
}

// runConfReplay replays the cases on the wall clock. A case lasts its
// scenario's horizon (5 s) whatever the machine does, so the window is
// as many cases as fit in -seconds, at least one and at most two. Each
// case is replayed confParallel times side by side, on scenario seeds
// drawn from -seed: a replay sleeps through most of its 5 s and uses
// about 30 ms of processor, too little to read steadily from one.
func runConfReplay(p params) (*result, error) {
	r := newResult("conf-replay")
	cases, err := confCases(min(max(p.seconds/5, 1), len(confScenarios)))
	if err != nil {
		return nil, err
	}
	rnd := rng.New(p.seed).Fork("conf-replay")
	seeds := make([]uint64, p.reps(confParallel))
	for i := range seeds {
		seeds[i] = rnd.Uint64()
	}

	// Set-up is what a replay does before any packet moves: resolving
	// each scenario and compiling it into a populated simulator world.
	var setups []float64
	var keep []*simrun.World
	for rep := 0; rep < p.reps(confSetupReps); rep++ {
		keep = keep[:0]
		if rep%setupGCEvery == 0 {
			runtime.GC()
		}
		start := time.Now()
		for _, c := range cases {
			for _, seed := range seeds {
				spec, err := scenario.Resolve(c.Scenario)
				if err != nil {
					return nil, err
				}
				w, err := spec.World(seed)
				if err != nil {
					return nil, err
				}
				keep = append(keep, w)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", setups...)
	r.set("heap_mb", float64(liveHeap())/1e6)
	runtime.KeepAlive(keep)

	// One operation is one second of scenario time replayed; one slice
	// is one case, all its replays together.
	var wallPer, cpuPer, detectGap, loadGap []float64
	var replayTime time.Duration
	tapped, outOfBand, afterRemoval := 0, 0, 0
	for _, c := range cases {
		spec, _ := scenario.ByName(c.Scenario)
		results := make([]*conformance.Result, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		u0, s0 := cpuTime()
		start := time.Now()
		for i, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = conformance.Run(c, seed)
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		u1, s1 := cpuTime()
		replayed := float64(len(seeds)) * spec.Horizon.Std().Seconds()
		wallPer = append(wallPer, float64(wall)/replayed)
		cpuPer = append(cpuPer, float64(u1-u0+s1-s0)/replayed)
		replayTime += wall
		for i, res := range results {
			if errs[i] != nil {
				return nil, fmt.Errorf("%s seed %d: %w", c.Scenario, seeds[i], errs[i])
			}
			tapped += int(res.TappedPackets)
			// Invariants have no tolerance and schedule-derived counts
			// replay verbatim: either off is a failed operation. A banded
			// diff is a statistical comparison of two independent random
			// runs; a miss is reported, not failed.
			r.Attempted += len(res.Diffs) + 1
			for _, v := range res.Violations {
				if strings.Contains(v, knownArtefact) {
					afterRemoval++
					r.warn("%s seed %d: %s", c.Scenario, seeds[i], v)
				} else {
					r.fail(1, "%s seed %d: invariant violated: %s", c.Scenario, seeds[i], v)
				}
			}
			for _, d := range res.Diffs {
				switch {
				case d.OK:
				case d.Abs == 0 && d.Rel == 0:
					r.fail(1, "%s seed %d: %s replayed as %g, simulator had %g", c.Scenario, seeds[i], d.Name, d.Fleet, d.Sim)
				default:
					outOfBand++
					r.warn("%s seed %d: %s outside its band: simulator %.4g, fleet %.4g", c.Scenario, seeds[i], d.Name, d.Sim, d.Fleet)
				}
			}
			if !res.Bye {
				detectGap = append(detectGap, 1e3*(res.Fleet.DetectMean-res.Sim.DetectMean))
			}
			loadGap = append(loadGap, res.Fleet.LoadMean-res.Sim.LoadMean)
		}
	}
	r.set("ns_per_op", wallPer...)
	r.set("cpu_ns_per_op", cpuPer...)
	if !p.trace {
		return r, nil
	}

	r.set("conformance.replay_s", replayTime.Seconds())
	r.set("conformance.detect_gap_ms", detectGap...)
	r.set("conformance.load_gap", loadGap...)
	r.set("conformance.tapped_packets", float64(tapped))
	r.set("conformance.out_of_band", float64(outOfBand))
	r.set("conformance.after_removal", float64(afterRemoval))
	if err := memnetLedger(r, p); err != nil {
		return nil, err
	}
	if err := memnetAdds(r, p); err != nil {
		return nil, err
	}
	return r, nil
}

// memnetAdds times AddControlPoint on a started, idle one-shard fleet
// over memnet. It is slow (milliseconds against tens of microseconds on
// UDP) because memnet's SetReadDeadline only stores the deadline and
// never wakes a parked read, so the inbox's poke does nothing there.
func memnetAdds(r *result, p params) error {
	net := memnet.New(memnet.Faults{})
	defer net.Close()
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })
	devs, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
	if err != nil {
		return err
	}
	defer devs.Close() //nolint:errcheck // in-memory transport
	cps, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
	if err != nil {
		return err
	}
	defer cps.Close() //nolint:errcheck // in-memory transport
	if err := devs.Start(); err != nil {
		return err
	}
	if err := cps.Start(); err != nil {
		return err
	}
	dev, err := devs.AddDevice(microDevice, func(env core.Env) (core.Device, error) { return naive.NewDevice(microDevice, env) })
	if err != nil {
		return err
	}
	var adds []float64
	for i := 0; i < p.calls(100); i++ {
		policy, err := naive.NewPolicy(time.Hour) // one probe on add, then idle
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = cps.AddControlPoint(fleet.CPConfig{ID: microCP + ident.NodeID(i), Device: microDevice, DeviceAddrPort: dev.Addr(), Policy: policy})
		if err != nil {
			return err
		}
		adds = append(adds, float64(time.Since(start))/float64(time.Millisecond))
	}
	r.set("memnet.add_cp_ms", adds...)
	return nil
}
