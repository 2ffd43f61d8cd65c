package fleet_test

// Churn soak: a seeded random storm of runtime AddControlPoint /
// RemoveControlPoint / AddDevice / RemoveDevice against a live memnet
// fleet, then a full tear-down. The point is leak detection under
// sustained mutation — after the storm every gauge must return to its
// floor (no stranded probers, no orphaned timers, no pending demux
// entries), the flight recorder must go quiet (removed control points
// record nothing), and closing the fleets must release every
// goroutine. Four fixed seeds keep the schedule reproducible; the CI
// admin-smoke job runs this file under -race.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
)

const (
	soakDeviceID  = ident.NodeID(9)  // long-lived probe target
	soakChurnDev  = ident.NodeID(10) // device churned alongside the CPs
	soakOps       = 240
	soakCPCeiling = 64
)

// soakPolicy probes forever on a short fixed cadence, so removal
// almost always lands on a CP with a cycle in flight or a wheel timer
// armed — the interesting cleanup paths.
type soakPolicy struct{}

func (soakPolicy) NextDelay(core.CycleResult) time.Duration { return 2 * time.Millisecond }

func soakWait(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChurnSoak(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2005} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { churnSoak(t, seed, false) })
	}
}

// TestChurnSoakAuthRotation is the same storm with frame authentication
// on and the master key rotating every two dozen mutations: schedule
// re-derivation, the dual-key grace and the auth cache sweeps all run
// concurrently with add/remove churn and migration. One seed keeps the
// -race runtime bounded; the schedule is still reproducible.
func TestChurnSoakAuthRotation(t *testing.T) {
	churnSoak(t, 7, true)
}

func churnSoak(t *testing.T, seed int64, rotateAuth bool) {
	goroutines := runtime.NumGoroutine()

	net := memnet.New(memnet.Faults{})
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })

	var auth fleet.RuntimeConfig
	if rotateAuth {
		auth = fleet.RuntimeConfig{AuthKey: []byte("soak-master-0")}
	}
	devFleet, err := fleet.New(fleet.Config{Shards: 2, Transport: transport, RuntimeConfig: auth})
	if err != nil {
		t.Fatal(err)
	}
	if err := devFleet.Start(); err != nil {
		t.Fatal(err)
	}
	dev, err := devFleet.AddDevice(soakDeviceID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(soakDeviceID, env)
	})
	if err != nil {
		t.Fatal(err)
	}

	cpFleet, err := fleet.New(fleet.Config{Shards: 2, Transport: transport, RuntimeConfig: auth})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpFleet.Start(); err != nil {
		t.Fatal(err)
	}

	// rotateKey pushes master key number n to both fleets back to back.
	// The default 30 s grace covers the push skew and every in-flight
	// frame, so rotation mid-storm must not manufacture rejections.
	rotations := 0
	rotateKey := func(n int) {
		key := []byte(fmt.Sprintf("soak-master-%d", n))
		for _, f := range []*fleet.Fleet{devFleet, cpFleet} {
			rc, _ := f.ConfigSnapshot()
			rc.AuthKey = key
			if _, err := f.SetConfig(rc); err != nil {
				t.Fatalf("rotate to key %d: %v", n, err)
			}
		}
		rotations++
	}

	rng := rand.New(rand.NewSource(seed))
	live := make([]ident.NodeID, 0, soakCPCeiling)
	next := ident.NodeID(1000)
	adds, removes := 0, 0
	churnDevUp := false

	addCP := func() {
		id := next
		next++
		_, err := cpFleet.AddControlPoint(fleet.CPConfig{
			ID: id, Device: soakDeviceID, DeviceAddrPort: dev.Addr(),
			Policy: soakPolicy{},
			// Memnet delivers instantly; generous timeouts keep loaded
			// CI boxes from manufacturing lost verdicts mid-soak.
			Retransmit: core.RetransmitConfig{FirstTimeout: 30 * time.Second, RetryTimeout: 30 * time.Second},
		})
		if err != nil {
			t.Fatalf("add CP %v: %v", id, err)
		}
		live = append(live, id)
		adds++
	}
	removeCP := func() {
		i := rng.Intn(len(live))
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := cpFleet.RemoveControlPoint(id); err != nil {
			t.Fatalf("remove CP %v: %v", id, err)
		}
		removes++
	}

	for op := 0; op < soakOps; op++ {
		switch {
		case len(live) == 0 || (rng.Float64() < 0.55 && len(live) < soakCPCeiling):
			addCP()
		default:
			removeCP()
		}
		// Churn the second device every so often: add/remove of a
		// hosted engine with its announce path and shard slot.
		if op%24 == 11 {
			if churnDevUp {
				if err := devFleet.RemoveDevice(soakChurnDev); err != nil {
					t.Fatalf("remove churn device: %v", err)
				}
			} else {
				if _, err := devFleet.AddDevice(soakChurnDev, func(env core.Env) (core.Device, error) {
					return naive.NewDevice(soakChurnDev, env)
				}); err != nil {
					t.Fatalf("add churn device: %v", err)
				}
			}
			churnDevUp = !churnDevUp
		}
		if rotateAuth && op%24 == 17 {
			rotateKey(rotations + 1)
		}
		if op%8 == 0 {
			time.Sleep(time.Millisecond) // let probe traffic interleave with the churn
		}
	}
	if cpFleet.Snapshot().Total.RepliesIn == 0 {
		t.Fatal("soak produced no probe traffic — the storm tested nothing")
	}
	if rotateAuth {
		if rotations == 0 {
			t.Fatal("auth soak rotated no keys — the storm tested nothing")
		}
		// Both fleets authenticated every frame of the storm. Rotation
		// skew between the two SetConfig pushes can reject a handful of
		// in-flight frames (they look like packet loss and are retried);
		// downgrades would mean an unauthenticated frame got through to
		// the high-water check, which must never happen here.
		for name, c := range map[string]fleet.Counters{
			"cp": cpFleet.Snapshot().Total, "dev": devFleet.Snapshot().Total,
		} {
			if c.AuthVerified == 0 {
				t.Errorf("%s fleet verified no frames during the auth soak", name)
			}
			if c.AuthDowngraded != 0 {
				t.Errorf("%s fleet saw v1 frames in an all-v2 soak: %+v", name, c)
			}
		}
		t.Logf("rotated %d keys; cp auth: verified=%d stale=%d rejected=%d",
			rotations,
			cpFleet.Snapshot().Total.AuthVerified,
			cpFleet.Snapshot().Total.AuthStaleKey,
			cpFleet.Snapshot().Total.AuthRejected)
	}

	// Tear everything down through the admin API and let the wire drain.
	for _, id := range live {
		if err := cpFleet.RemoveControlPoint(id); err != nil {
			t.Fatalf("final remove CP %v: %v", id, err)
		}
		removes++
	}
	if churnDevUp {
		if err := devFleet.RemoveDevice(soakChurnDev); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("seed %d: %d adds, %d removes", seed, adds, removes)

	// Every gauge returns to its floor: zero CPs, zero pending demux
	// entries, and exactly one wheel timer per shard (the pending-table
	// sweeper, armed for the fleet's lifetime).
	soakWait(t, 5*time.Second, "gauges to drain", func() bool {
		s := cpFleet.Snapshot().Total
		return s.ControlPoints == 0 && s.LiveControlPoints == 0 &&
			s.PendingProbes == 0 && s.WheelDepth == cpFleet.Shards()
	})
	snap := cpFleet.Snapshot().Total
	if snap.ProbesOut < uint64(adds) {
		t.Errorf("ProbesOut = %d, want at least one probe per added CP (%d)", snap.ProbesOut, adds)
	}
	if snap.RepliesIn > snap.ProbesOut {
		t.Errorf("counters inconsistent: RepliesIn %d > ProbesOut %d", snap.RepliesIn, snap.ProbesOut)
	}

	// The flight recorder goes quiet: with every CP removed, no shard
	// records another event (a stranded prober would keep probing).
	count := func() int {
		n := 0
		for _, events := range cpFleet.FlightSnapshot() {
			n += len(events)
		}
		return n
	}
	before := count()
	time.Sleep(150 * time.Millisecond)
	if after := count(); after != before {
		t.Errorf("flight recorder still recording after full removal: %d -> %d events", before, after)
	}

	// Closing both fleets and the network releases every goroutine the
	// soak spawned.
	if err := cpFleet.Close(); err != nil {
		t.Fatal(err)
	}
	if err := devFleet.Close(); err != nil {
		t.Fatal(err)
	}
	net.Close()
	soakWait(t, 5*time.Second, "goroutines to exit", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutines+2
	})
}
