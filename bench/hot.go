package main

import (
	"fmt"
	"time"

	"presence/internal/fleet"
)

const (
	// hotCPs stays at 64: the harness's ring transport rotates O(queued)
	// slots per read, so a larger fleet mostly measures the harness.
	hotCPs       = 64
	hotWarmSteps = 200
	hotSlice     = 500 * time.Millisecond
	hotSetupReps = 31
)

func runHotPlain(p params) (*result, error) {
	return runHot("hot-plain", fleet.HotPathOptions{CPs: hotCPs}, p)
}

func runHotAuth(p params) (*result, error) {
	return runHot("hot-auth", fleet.HotPathOptions{CPs: hotCPs, Auth: true}, p)
}

// hotSetup builds the harness and warms it: what a user pays before
// the first steady packet.
func hotSetup(opts fleet.HotPathOptions) (*fleet.HotPathBench, error) {
	h, err := fleet.NewHotPathBench(opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < hotWarmSteps; i++ {
		h.Step()
	}
	return h, nil
}

// hotSlices steps the harness for total, in slices, and returns each
// slice's wall-clock and processor nanoseconds per packet handling,
// the steps taken and the allocations made.
func hotSlices(h *fleet.HotPathBench, total time.Duration) (wallNS, cpuNS []float64, steps int, allocs uint64) {
	perStep := float64(h.PacketsPerStep())
	for n := int(total / hotSlice); n > 0; n-- {
		var done int
		var elapsed time.Duration
		u0, s0 := cpuTime()
		allocs += mallocs(func() {
			start := time.Now()
			for elapsed < hotSlice {
				for i := 0; i < 16; i++ {
					h.Step()
				}
				done += 16
				elapsed = time.Since(start)
			}
		})
		u1, s1 := cpuTime()
		pkts := float64(done) * perStep
		wallNS = append(wallNS, float64(elapsed)/pkts)
		cpuNS = append(cpuNS, float64(u1-u0+s1-s0)/pkts)
		steps += done
	}
	return wallNS, cpuNS, steps, allocs
}

func runHot(name string, opts fleet.HotPathOptions, p params) (*result, error) {
	r := newResult(name)
	var setups []float64
	var h *fleet.HotPathBench
	for i := 0; i < p.reps(hotSetupReps); i++ {
		if h != nil {
			h.Close() //nolint:errcheck // ring transport, nothing to report
		}
		start := time.Now()
		var err error
		if h, err = hotSetup(opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer h.Close() //nolint:errcheck // ring transport, nothing to report
	r.set("setup_s", setups...)
	r.set("heap_mb", float64(liveHeap())/1e6)
	// The collection emptied the message pools, and they refill over
	// the next few thousand steps: one slice, not measured.
	hotSlices(h, hotSlice)

	before := h.Counters()
	window := time.Duration(p.seconds) * time.Second
	ns, cpu, steps, allocs := hotSlices(h, window)
	after := h.Counters()
	r.set("ns_per_op", ns...)
	r.set("cpu_ns_per_op", cpu...)
	r.Attempted = steps * h.PacketsPerStep()
	if got, want := after.RepliesIn-before.RepliesIn, uint64(steps*h.CPs()); got != want {
		r.fail(1, "RepliesIn grew by %d over %d steps of %d CPs, want %d", got, steps, h.CPs(), want)
	}
	bad := after.DecodeErrors + after.SendErrors + after.DemuxDrops + after.DemuxCollisions + after.AuthRejected
	r.fail(int(bad), "harness counted %d decode/send/demux/auth errors", bad)
	// A path that allocates does so every step. A handful over millions
	// of steps is sync.Pool handing a message to a P the goroutine had
	// not run on since the last collection.
	if allocs*100 > uint64(steps) && !raceEnabled {
		r.fail(int(allocs), "%d allocations over %d steps, want 0 a step", allocs, steps)
	}
	if !p.trace {
		return r, nil
	}

	// The ledger: the layers' own costs, then the same harness with
	// telemetry off and on the single-datagram path, and what is left.
	r.set("fleet.hot_allocs_per_step", float64(allocs)/float64(steps))
	if err := wireLedger(r, p); err != nil {
		return nil, err
	}
	if err := engineLedger(r, p); err != nil {
		return nil, err
	}
	telemetryLedger(r, p)
	variant := func(o fleet.HotPathOptions) (float64, error) {
		v, err := hotSetup(o)
		if err != nil {
			return 0, err
		}
		defer v.Close() //nolint:errcheck // ring transport, nothing to report
		ns, _, _, _ := hotSlices(v, max(window/4, hotSlice))
		return median(ns), nil
	}
	quiet := opts
	quiet.DisableTelemetry = true
	base, err := variant(quiet)
	if err != nil {
		return nil, err
	}
	total := r.median("ns_per_op")
	r.set("fleet.telemetry_ns", total-base)
	single := opts
	single.ForceSingleDatagram = true
	one, err := variant(single)
	if err != nil {
		return nil, err
	}
	r.set("fleet.single_ns_per_pkt", one)

	// Per packet handling: half a decode, half an encode (or a signing
	// encode and a verify), a quarter of a prober cycle and of a device
	// probe. The residual is the fleet's own share: demux, wheel, send
	// queue, locks, counters, telemetry.
	rows := r.median("wire.decode_ns")/2 + r.median("core.prober_cycle_ns")/4 + r.median("core.device_probe_ns")/4
	residual := "fleet.residual_ns"
	if opts.Auth {
		rows += r.median("wire.sign_ns")/2 + r.median("wire.verify_ns")/2
		residual = "fleet.residual_auth_ns"
	} else {
		rows += r.median("wire.encode_ns") / 2
	}
	r.set(residual, total-rows)
	if total-rows < 0 {
		r.warn("%s is negative (%.1f ns): a ledger row is mis-measured", residual, total-rows)
	}
	fmt.Printf("%-12s ledger: %.1f ns/packet = %.1f in wire and core rows + %.1f fleet residual (of which %.1f telemetry)\n",
		name, total, rows, total-rows, total-base)
	return r, nil
}
