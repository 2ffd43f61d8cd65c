package simrun

import (
	"testing"
	"time"

	"presence/internal/core/discovery"
	"presence/internal/core/protocol"
)

func discoveryConfig(probe bool) Config {
	cfg := Config{Protocol: protocol.DCPP, Seed: 40}
	cfg.Discovery = DiscoveryConfig{
		Enabled:          true,
		Announce:         discovery.AnnouncerConfig{MaxAge: 30 * time.Second, Period: 10 * time.Second},
		ProbeOnDiscovery: probe,
	}
	return cfg
}

func TestDiscoveryCreatesProbersDynamically(t *testing.T) {
	w := mustWorld(t, discoveryConfig(true))
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	if h.Prober != nil {
		t.Fatal("prober exists before any announcement")
	}
	// The device announces at t=0; the announcement is in flight when
	// the CP joins at t=0? No — the join happens at t=0 too, before the
	// broadcast is delivered only to attached nodes. The next periodic
	// announcement (t=10s) reaches the CP.
	w.Run(sec(15))
	if h.Prober == nil {
		t.Fatal("prober not created after discovery")
	}
	if _, ok := h.DiscoveredDevice(w.Device().ID); !ok {
		t.Fatal("device not recorded as discovered")
	}
	w.Run(sec(60))
	if h.Prober.Stats().CyclesOK == 0 {
		t.Fatal("discovered prober never completed a cycle")
	}
	if !h.Registry.Known(w.Device().ID) {
		t.Fatal("announced device unknown to the registry")
	}
}

func TestDiscoveryOnlyExpiryIsSlow(t *testing.T) {
	w := mustWorld(t, discoveryConfig(false))
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(25)) // discovered via the t=10s and t=20s announcements
	if _, ok := h.DiscoveredDevice(w.Device().ID); !ok {
		t.Fatal("device never discovered")
	}
	if h.Prober != nil {
		t.Fatal("probe-on-discovery disabled but a prober exists")
	}
	killAt := w.KillDevice()
	w.Run(killAt + sec(45))
	expAt, ok := h.ExpiredDevice(w.Device().ID)
	if !ok {
		t.Fatal("device never expired after the crash")
	}
	latency := expAt - killAt
	// Last announcement was ≤10 s before the kill; expiry fires between
	// max-age−period = 20 s and max-age + sweep ≈ 31 s later.
	if latency < sec(15) || latency > sec(32) {
		t.Fatalf("expiry latency = %v, want within [20s, 31s]", latency)
	}
}

func TestDiscoveryPlusProbingDetectsFast(t *testing.T) {
	w := mustWorld(t, discoveryConfig(true))
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(15))
	killAt := w.KillDevice()
	w.Run(killAt + sec(10))
	if !h.Lost {
		t.Fatal("probing CP did not detect the crash")
	}
	latency := h.LostAt - killAt
	if latency > sec(2) {
		t.Fatalf("probe detection latency = %v, want ≪ max-age", latency)
	}
	// The probe-layer loss also purged the registry entry.
	if h.Registry.Known(w.Device().ID) {
		t.Fatal("registry still lists the lost device")
	}
}

func TestDiscoveryRediscoveryAfterRevival(t *testing.T) {
	w := mustWorld(t, discoveryConfig(true))
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(15))
	killAt := w.KillDevice()
	w.Run(killAt + sec(5))
	w.ReviveDevice()
	// The revived device announces again; the CP re-discovers it and the
	// (stopped) prober restarts via ensureProber's start-on-create path?
	// No: the prober exists but stopped. Re-discovery must restart it.
	w.Run(killAt + sec(40))
	if !h.Registry.Known(w.Device().ID) {
		t.Fatal("revived device not re-discovered")
	}
}

func TestDiscoveryMultiDevice(t *testing.T) {
	cfg := discoveryConfig(true)
	cfg.Devices = 3
	w := mustWorld(t, cfg)
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(sec(20))
	for _, d := range w.Devices() {
		if _, ok := h.DiscoveredDevice(d.ID); !ok {
			t.Fatalf("device %v not discovered", d.ID)
		}
		if h.ProberFor(d.ID) == nil {
			t.Fatalf("no prober towards %v", d.ID)
		}
	}
	w.Run(sec(120))
	for _, d := range w.Devices() {
		if h.ProberFor(d.ID).Stats().CyclesOK == 0 {
			t.Fatalf("prober towards %v idle", d.ID)
		}
	}
}
