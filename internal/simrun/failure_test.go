package simrun

import (
	"testing"

	"presence/internal/core/dcpp"
	"presence/internal/core/protocol"
	"presence/internal/simnet"
)

// TestPartitionCausesFalsePositive: blocking the CP→device link makes
// the CP (correctly, from its viewpoint) declare the device absent —
// the probe protocol cannot distinguish a dead device from an
// unreachable one.
func TestPartitionCausesFalsePositive(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 20})
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(10))
	if h.Lost {
		t.Fatal("lost before partition")
	}
	w.Net().Block(h.ID, w.Device().ID)
	w.Run(sec(15))
	if !h.Lost {
		t.Fatal("partitioned CP never declared the device absent")
	}
	// Heal the partition and restart: monitoring recovers.
	w.Net().Unblock(h.ID, w.Device().ID)
	h.Lost = false
	h.Prober.Start()
	before := h.Prober.Stats().CyclesOK
	w.Run(sec(25))
	if h.Prober.Stats().CyclesOK <= before {
		t.Fatal("healed CP completed no cycles")
	}
	if h.Lost {
		t.Fatal("healed CP still reports the device lost")
	}
}

// TestAsymmetricPartitionLosesReplies: blocking only the device→CP
// direction drops every reply; the CP retransmits (uselessly) and then
// declares absence. The device, meanwhile, keeps counting probes.
func TestAsymmetricPartitionLosesReplies(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 21})
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(5))
	probesBefore := w.DeviceLoad().Total()
	w.Net().Block(w.Device().ID, h.ID)
	w.Run(sec(12))
	if !h.Lost {
		t.Fatal("CP with blocked replies never gave up")
	}
	if w.DeviceLoad().Total() <= probesBefore {
		t.Fatal("device saw no probes during the asymmetric partition")
	}
	st := h.Prober.Stats()
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions before giving up")
	}
}

// TestDCPPUnderDuplication: duplicated probes must not inflate the
// schedule — the device answers retransmissions/duplicates of a cycle
// from its assignment table, so the load bound holds.
func TestDCPPUnderDuplication(t *testing.T) {
	cfg := Config{Protocol: protocol.DCPP, Seed: 22}
	cfg.Net.DuplicateP = 0.3
	w := mustWorld(t, cfg)
	if _, err := w.AddCPs(20); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(60))
	w.ResetMeasurements()
	w.Run(sec(240))
	// Device-side dedupe answered the duplicate probes.
	dev := w.Device().Engine.(*dcpp.Device)
	if dev.DupReplies() == 0 {
		t.Fatal("no duplicate probes were deduplicated")
	}
	// The load recorder counts every arriving probe, including dups;
	// duplicates are ~30% extra, so allow up to 1.4×L_nom, but fresh
	// slots must stay δ_min apart — verify via per-CP frequencies.
	freqs := w.CPFrequencies()
	for _, f := range freqs {
		if f > 2.05 {
			t.Fatalf("per-CP frequency %g exceeds f_max under duplication", f)
		}
	}
}

// TestDCPPUnderLossKeepsLoadBounded: with 10% loss, retransmissions add
// traffic but the schedule still spaces fresh slots; CPs that lose a
// full cycle stop (false positives are possible and expected).
func TestDCPPUnderLossKeepsLoadBounded(t *testing.T) {
	cfg := Config{Protocol: protocol.DCPP, Seed: 23}
	cfg.Net.Loss = simnet.Bernoulli{P: 0.1}
	w := mustWorld(t, cfg)
	if _, err := w.AddCPs(20); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(300))
	var retransmits uint64
	for _, h := range w.AllCPs() {
		retransmits += h.Prober.Stats().Retransmits
	}
	if retransmits == 0 {
		t.Fatal("no retransmissions under 10% loss")
	}
	// Load includes retransmitted probes; still far below naive overload.
	loadStats := w.DeviceLoad().Stats()
	if loadStats.Mean() > 13 {
		t.Fatalf("lossy DCPP load = %g, want bounded near L_nom", loadStats.Mean())
	}
}

// TestSAPPSurvivesDeviceRestart: the device crashes and comes back with
// a reset probe counter; restarted CPs must re-anchor their L_exp
// estimate instead of treating the counter jump as meaningful.
func TestSAPPSurvivesDeviceRestart(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.SAPP, Seed: 24})
	hosts, err := w.AddCPs(5)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(120))
	w.KillDevice()
	w.Run(sec(140))
	for _, h := range hosts {
		if !h.Lost {
			t.Fatal("CP did not detect the crash")
		}
	}
	w.ReviveDevice()
	for _, h := range hosts {
		h.Prober.Start()
	}
	w.Run(sec(260))
	for _, h := range hosts {
		st := h.Prober.Stats()
		if st.CyclesOK == 0 {
			t.Fatalf("%s completed no cycles after the restart", h.Name)
		}
	}
	loadStats := w.DeviceLoad().Stats()
	if loadStats.Mean() <= 0 {
		t.Fatal("no load after restart")
	}
}

// TestChurnWithLossAndDuplication: the full adversarial combination —
// churn, loss, duplication — must neither deadlock, nor violate the
// DCPP fresh-slot bound, nor crash.
func TestChurnWithLossAndDuplication(t *testing.T) {
	cfg := Config{Protocol: protocol.DCPP, Seed: 25}
	cfg.Net.Loss = simnet.Bernoulli{P: 0.05}
	cfg.Net.DuplicateP = 0.05
	w := mustWorld(t, cfg)
	if err := w.StartChurn(DefaultUniformChurn()); err != nil {
		t.Fatal(err)
	}
	w.Run(sec(600))
	loadStats := w.DeviceLoad().Stats()
	if loadStats.Mean() < 5 || loadStats.Mean() > 14 {
		t.Fatalf("adversarial churn load = %g, want near L_nom", loadStats.Mean())
	}
	if w.Sim().Executed() == 0 {
		t.Fatal("simulation made no progress")
	}
}

// TestDeviceByeDuringChurn: a graceful leave mid-churn notifies the
// active population; CPs that joined after the bye... cannot join (the
// device is gone), so the population only drains.
func TestDeviceByeDuringChurn(t *testing.T) {
	w := mustWorld(t, Config{Protocol: protocol.DCPP, Seed: 26})
	if _, err := w.AddCPs(10); err != nil {
		t.Fatal(err)
	}
	w.ScheduleDeviceBye(sec(30))
	w.Run(sec(60))
	byes := 0
	for _, h := range w.ActiveCPs() {
		if h.SawBye {
			byes++
		}
	}
	if byes != 10 {
		t.Fatalf("%d/10 CPs saw the bye", byes)
	}
	if w.Device().Alive() {
		t.Fatal("device still alive after bye")
	}
}

// TestDedupeDisabledDeviceOverSchedules: with dedupe off (the paper's
// literal protocol) duplicated probes claim extra slots, pushing CP
// waits beyond the fair share — quantifies why the extension matters.
func TestDedupeDisabledDeviceOverSchedules(t *testing.T) {
	run := func(dedupe bool) float64 {
		cfg := Config{Protocol: protocol.DCPP, Seed: 27}
		cfg.Net.DuplicateP = 0.5
		dev := dcpp.DefaultDeviceConfig()
		if !dedupe {
			dev.DedupeTTL = -1
		}
		cfg.DCPPDevice = dev
		w := mustWorld(t, cfg)
		if _, err := w.AddCPs(10); err != nil {
			t.Fatal(err)
		}
		w.Run(sec(120))
		freqs := w.CPFrequencies()
		var sum float64
		for _, f := range freqs {
			sum += f
		}
		return sum / float64(len(freqs))
	}
	with := run(true)
	without := run(false)
	if !(without < with) {
		t.Fatalf("dedupe off should slow CPs down (wasted slots): with=%g without=%g", with, without)
	}
}
