package simrun

import (
	"testing"

	"presence/internal/core/protocol"
	"presence/internal/stats"
)

func TestMultiDeviceWorldConstruction(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 30, Devices: 3})
	if len(w.Devices()) != 3 {
		t.Fatalf("Devices() = %d, want 3", len(w.Devices()))
	}
	if w.Device().ID != w.Devices()[0].ID {
		t.Fatal("Device() must be the primary device")
	}
	ids := map[int64]bool{}
	for _, d := range w.Devices() {
		if !d.Alive() {
			t.Fatal("fresh device not alive")
		}
		if ids[int64(d.ID)] {
			t.Fatal("duplicate device id")
		}
		ids[int64(d.ID)] = true
	}
	if _, err := NewWorld(Config{Protocol: protocol.DCPP, Devices: -1}); err == nil {
		t.Error("negative device count accepted")
	}
}

func TestMultiDeviceEachDeviceLoadBounded(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 31, Devices: 3})
	if _, err := w.AddCPs(10); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(60))
	w.ResetMeasurements()
	w.Run(sec(240))
	// 10 CPs × f_max 2/s = 20 > L_nom = 10 per device: every device is
	// schedule-limited at its own L_nom, independently.
	for i, d := range w.Devices() {
		st := d.Load.Stats()
		if st.Mean() < 9 || st.Mean() > 10.2 {
			t.Fatalf("device %d load = %g, want ≈10", i, st.Mean())
		}
	}
	// Fairness holds per device.
	for _, d := range w.Devices() {
		freqs := w.CPFrequenciesFor(d.ID)
		if len(freqs) != 10 {
			t.Fatalf("device %v has %d monitored frequencies", d.ID, len(freqs))
		}
		if j := stats.JainIndex(freqs); j < 0.99 {
			t.Fatalf("device %v fairness J = %g", d.ID, j)
		}
	}
}

func TestMultiDeviceIndependentFailure(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 32, Devices: 2})
	hosts, err := w.AddCPs(4)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(30))
	victim := w.Devices()[1]
	killAt := w.KillDeviceID(victim.ID)
	w.Run(sec(45))
	for _, h := range hosts {
		// The victim must be detected...
		at, ok := h.LostDevice(victim.ID)
		if !ok {
			t.Fatalf("%s never detected device %v", h.Name, victim.ID)
		}
		if at <= killAt {
			t.Fatalf("%s detected the crash before it happened", h.Name)
		}
		// ...while the primary device stays monitored.
		if h.Lost {
			t.Fatalf("%s lost the healthy primary device", h.Name)
		}
		if h.Prober.Stopped() {
			t.Fatalf("%s's primary prober stopped", h.Name)
		}
		if !h.ProberFor(victim.ID).Stopped() {
			t.Fatalf("%s's victim prober still running", h.Name)
		}
	}
	// The healthy device keeps serving.
	before := w.Device().Load.Total()
	w.Run(sec(60))
	if w.Device().Load.Total() <= before {
		t.Fatal("healthy device stopped receiving probes")
	}
}

func TestMultiDeviceSelectiveBye(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 33, Devices: 2})
	hosts, err := w.AddCPs(3)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(10))
	second := w.Devices()[1]
	w.DeviceByeID(second.ID)
	w.Run(sec(15))
	for _, h := range hosts {
		if !h.ProberFor(second.ID).Stopped() {
			t.Fatalf("%s still probing the departed device", h.Name)
		}
		if h.SawBye {
			t.Fatalf("%s recorded a bye for the primary device", h.Name)
		}
	}
	if second.Alive() {
		t.Fatal("departed device still alive")
	}
	// Reviving and restarting brings it back.
	w.ReviveDeviceID(second.ID)
	for _, h := range hosts {
		h.ProberFor(second.ID).Start()
	}
	before := second.Load.Total()
	w.Run(sec(30))
	if second.Load.Total() <= before {
		t.Fatal("revived device got no probes")
	}
}

func TestMultiDeviceSAPPIndependentAdaptation(t *testing.T) {
	// Policies are per (CP, device): the same CP may be fast towards one
	// device and starved towards another.
	w := mustWorld(t, Config{Protocol: protocol.SAPP, Seed: 34, Devices: 2})
	if err := w.AddCPsStaggered(10, sec(5)); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(1500))
	for _, d := range w.Devices() {
		st := d.Load.Stats()
		if st.Mean() < 4 || st.Mean() > 17 {
			t.Fatalf("device %v SAPP load = %g, want near the band", d.ID, st.Mean())
		}
	}
	// Frequencies towards the two devices are distinct measurements.
	a := w.CPFrequenciesFor(w.Devices()[0].ID)
	b := w.CPFrequenciesFor(w.Devices()[1].ID)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("frequency sets: %d, %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("per-device adaptation states are identical — suspicious coupling")
	}
}

func TestMultiDeviceDeterminism(t *testing.T) {
	run := func() [2]uint64 {
		w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 35, Devices: 2})
		if _, err := w.AddCPs(5); err != nil {
			t.Fatal(err)
		}
		w.Run(sec(120))
		return [2]uint64{w.Devices()[0].Load.Total(), w.Devices()[1].Load.Total()}
	}
	if run() != run() {
		t.Fatal("multi-device runs with the same seed diverged")
	}
}
