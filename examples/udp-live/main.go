// udp-live runs the protocol on real UDP sockets: a DCPP device and
// three control points on the loopback interface, the device in a
// 1-shard fleet of its own and the control points in another. After a
// second of monitoring, the device's fleet is closed — a silent crash,
// no bye — and the example measures how long each control point takes
// to notice: the "are you still there?" question answered on a real
// network rather than in the simulator.
//
// Timeouts are scaled up from the paper's LAN values so the demo is
// robust on loaded machines; the structure (TOF > TOS, 3 retransmits)
// is the paper's.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"presence"
)

// watcher records presence events for one control point.
type watcher struct {
	name string

	mu     sync.Mutex
	cycles int
	lostAt time.Time
	lost   bool
}

func (w *watcher) DeviceAlive(presence.NodeID, presence.CycleResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cycles++
}

func (w *watcher) DeviceLost(presence.NodeID, time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lost = true
	w.lostAt = time.Now()
}

func (w *watcher) DeviceBye(presence.NodeID, time.Duration) {}

func main() {
	log.SetFlags(0)
	devCfg := presence.DefaultDCPPDeviceConfig()
	devCfg.MinGap = 25 * time.Millisecond     // L_nom = 40 probes/s
	devCfg.MinCPDelay = 80 * time.Millisecond // f_max = 12.5 probes/s per CP
	devFleet := startedFleet()
	dev, err := devFleet.AddDevice(1, presence.NewDCPPDeviceBuilder(1, devCfg))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device 1 (DCPP) listening on %s\n", dev.Addr())

	retransmit := presence.RetransmitConfig{
		FirstTimeout:   80 * time.Millisecond,
		RetryTimeout:   60 * time.Millisecond,
		MaxRetransmits: 3,
	}
	cpFleet := startedFleet()
	defer cpFleet.Close()
	watchers := make([]*watcher, 3)
	for i := range watchers {
		watchers[i] = &watcher{name: fmt.Sprintf("cp%d", i+2)}
		if _, err := presence.NewFleetDCPPControlPoint(cpFleet, presence.FleetCPConfig{
			ID:         presence.NodeID(i + 2),
			Device:     1,
			DeviceAddr: dev.Addr().String(),
			Retransmit: retransmit,
		}, presence.DCPPPolicyConfig{}, watchers[i]); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("monitoring for 1 second ...")
	time.Sleep(time.Second)
	for _, w := range watchers {
		w.mu.Lock()
		fmt.Printf("  %s: %d successful probe cycles\n", w.name, w.cycles)
		w.mu.Unlock()
	}

	fmt.Println("killing the device silently (no bye) ...")
	killed := time.Now()
	if err := devFleet.Close(); err != nil {
		log.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, w := range watchers {
			w.mu.Lock()
			lost := w.lost
			w.mu.Unlock()
			if !lost {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Worst case: assigned wait (≤ max(d_min, 3·δ_min) = 80 ms) + failed
	// cycle (TOF + 3·TOS = 260 ms).
	fmt.Println("detection latencies (bound ≈ wait + TOF + 3·TOS ≈ 340 ms + scheduling slack):")
	for _, w := range watchers {
		w.mu.Lock()
		if w.lost {
			fmt.Printf("  %s: lost after %v\n", w.name, w.lostAt.Sub(killed).Round(time.Millisecond))
		} else {
			fmt.Printf("  %s: not yet detected (unexpected)\n", w.name)
		}
		w.mu.Unlock()
	}
}

// startedFleet is a started 1-shard fleet: one UDP socket, one event
// loop.
func startedFleet() *presence.Fleet {
	f, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Start(); err != nil {
		log.Fatal(err)
	}
	return f
}
