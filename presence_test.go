package presence_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"presence"
	"presence/internal/ident"
)

func TestSimulationFacade(t *testing.T) {
	w, err := presence.NewSimulation(presence.SimConfig{
		Protocol: presence.ProtocolDCPP,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddCPs(10); err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Minute)
	loadStats := w.DeviceLoad().Stats()
	load := loadStats.Mean()
	if load <= 0 || load > 10.5 {
		t.Fatalf("facade DCPP load = %g", load)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	r := presence.DefaultRetransmit()
	if r.FirstTimeout != 22*time.Millisecond || r.RetryTimeout != 21*time.Millisecond || r.MaxRetransmits != 3 {
		t.Fatalf("retransmit defaults = %+v", r)
	}
	d := presence.DefaultDCPPDeviceConfig()
	if d.MinGap != 100*time.Millisecond || d.MinCPDelay != 500*time.Millisecond {
		t.Fatalf("DCPP defaults = %+v", d)
	}
	s := presence.DefaultSAPPDeviceConfig()
	if s.IdealLoad != 1e6 || s.NominalLoad != 10 {
		t.Fatalf("SAPP device defaults = %+v", s)
	}
	cp := presence.DefaultSAPPCPConfig()
	if cp.AlphaInc != 2 || cp.AlphaDec != 1.5 || cp.Beta != 1.5 {
		t.Fatalf("SAPP CP defaults = %+v", cp)
	}
	churn := presence.DefaultUniformChurn()
	if churn.Min != 1 || churn.Max != 60 || churn.Rate != 0.05 {
		t.Fatalf("churn defaults = %+v", churn)
	}
}

func TestExperimentFacade(t *testing.T) {
	all := presence.Experiments()
	if len(all) < 13 {
		t.Fatalf("only %d experiments exposed", len(all))
	}
	rep, err := presence.RunExperiment("tab-dcpp-static", presence.ExperimentOptions{
		Seed: 1, Scale: presence.ScaleShort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("experiment produced no metrics")
	}
	_, err = presence.RunExperiment("no-such-experiment", presence.ExperimentOptions{})
	var unknown *presence.UnknownExperimentError
	if !errors.As(err, &unknown) || unknown.ID != "no-such-experiment" {
		t.Fatalf("err = %v, want UnknownExperimentError", err)
	}
}

// TestUDPFacadeEndToEnd is the two-daemon shape (cmd/probed,
// cmd/probecp, examples/udp-live) through the facade: the device and
// the control point each run in a 1-shard fleet of their own and talk
// over kernel UDP.
func TestUDPFacadeEndToEnd(t *testing.T) {
	devFleet := startedFacadeFleet(t)
	devCfg := presence.DefaultDCPPDeviceConfig()
	devCfg.MinGap = 20 * time.Millisecond
	devCfg.MinCPDelay = 50 * time.Millisecond
	dev, err := devFleet.AddDevice(1, presence.NewDCPPDeviceBuilder(1, devCfg))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := presence.NewFleetDCPPControlPoint(startedFacadeFleet(t), presence.FleetCPConfig{
		ID: 2, Device: 1, DeviceAddr: dev.Addr().String(),
		Retransmit: presence.RetransmitConfig{
			FirstTimeout: 60 * time.Millisecond, RetryTimeout: 40 * time.Millisecond, MaxRetransmits: 3,
		},
	}, presence.DCPPPolicyConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cp.Stats().CyclesOK >= 3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("only %d cycles completed over loopback", cp.Stats().CyclesOK)
}

// startedFacadeFleet is a started 1-shard fleet closed at test end.
func startedFacadeFleet(t *testing.T) *presence.Fleet {
	t.Helper()
	f, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetFacade(t *testing.T) {
	f, err := presence.NewFleet(presence.FleetConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	devCfg := presence.DefaultDCPPDeviceConfig()
	devCfg.MinGap = 20 * time.Millisecond
	devCfg.MinCPDelay = 50 * time.Millisecond
	dev, err := f.AddDevice(1, presence.NewDCPPDeviceBuilder(1, devCfg))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := presence.NewFleetDCPPControlPoint(f, presence.FleetCPConfig{
		ID: 2, Device: 1, DeviceAddr: dev.Addr().String(),
		Retransmit: presence.RetransmitConfig{
			FirstTimeout: 60 * time.Millisecond, RetryTimeout: 40 * time.Millisecond, MaxRetransmits: 3,
		},
	}, presence.DCPPPolicyConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cp.Stats().CyclesOK >= 3 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cp.Stats().CyclesOK < 3 {
		t.Fatalf("only %d cycles completed through the fleet facade", cp.Stats().CyclesOK)
	}
	snap := f.Snapshot()
	if snap.Total.ControlPoints != 1 || snap.Total.Devices != 1 {
		t.Fatalf("fleet snapshot = %+v", snap.Total)
	}
	if snap.Total.SyscallsIn == 0 || snap.Total.SyscallsOut == 0 {
		t.Fatalf("fleet snapshot carries no transport-call accounting: %+v", snap.Total)
	}
}

// TestFleetFacadeSingleDatagram pins the facade's knob for the
// portable one-datagram-per-call path: traffic flows and every packet
// costs exactly one transport call.
func TestFleetFacadeSingleDatagram(t *testing.T) {
	f, err := presence.NewFleet(presence.FleetConfig{Shards: 1, ForceSingleDatagram: true, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	dev, err := f.AddDevice(1, presence.NewDCPPDeviceBuilder(1, presence.DefaultDCPPDeviceConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := presence.NewFleetDCPPControlPoint(f, presence.FleetCPConfig{
		ID: 2, Device: 1, DeviceAddr: dev.Addr().String(),
	}, presence.DCPPPolicyConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && cp.Stats().CyclesOK < 1 {
		time.Sleep(10 * time.Millisecond)
	}
	if cp.Stats().CyclesOK < 1 {
		t.Fatal("no cycle completed on the single-datagram path")
	}
	snap := f.Snapshot()
	if snap.Total.SyscallsOut != snap.Total.PacketsOut {
		t.Fatalf("single-datagram path: %d packets out over %d calls, want 1:1",
			snap.Total.PacketsOut, snap.Total.SyscallsOut)
	}
}

// TestFacadeConstructorErrorPaths: every facade constructor must turn
// an invalid configuration into an error — never a panic, never a
// half-built node. Table-driven over the fleet and scenario entry
// points.
func TestFacadeConstructorErrorPaths(t *testing.T) {
	// A started fleet for the NewFleet*ControlPoint rows.
	f, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// A stopped (never started) fleet.
	idle, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	validCP := presence.FleetCPConfig{ID: 2, Device: 1, DeviceAddr: "127.0.0.1:9"}

	cases := []struct {
		name string
		call func() error
	}{
		{"fleet-dcpp-cp/negative-max-wait", func() error {
			_, err := presence.NewFleetDCPPControlPoint(f, validCP,
				presence.DCPPPolicyConfig{MaxWait: -time.Second}, nil)
			return err
		}},
		{"fleet-dcpp-cp/zero-id", func() error {
			_, err := presence.NewFleetDCPPControlPoint(f, presence.FleetCPConfig{
				Device: 1, DeviceAddr: "127.0.0.1:9",
			}, presence.DCPPPolicyConfig{}, nil)
			return err
		}},
		{"fleet-dcpp-cp/bad-device-addr", func() error {
			_, err := presence.NewFleetDCPPControlPoint(f, presence.FleetCPConfig{
				ID: 2, Device: 1, DeviceAddr: "not-an-address:xx",
			}, presence.DCPPPolicyConfig{}, nil)
			return err
		}},
		// The fleet is the UDP runtime: a device address without a port
		// must fail to resolve before any socket is touched.
		{"udp-dcpp-cp/bad-device-addr", func() error {
			_, err := presence.NewFleetDCPPControlPoint(f, presence.FleetCPConfig{
				ID: 2, Device: 1, DeviceAddr: "127.0.0.1",
			}, presence.DCPPPolicyConfig{}, nil)
			return err
		}},
		{"fleet-dcpp-cp/not-started", func() error {
			_, err := presence.NewFleetDCPPControlPoint(idle, validCP, presence.DCPPPolicyConfig{}, nil)
			return err
		}},
		{"fleet-sapp-cp/negative-min-delay", func() error {
			cfg := presence.DefaultSAPPCPConfig()
			cfg.MinDelay = -time.Second
			_, err := presence.NewFleetSAPPControlPoint(f, validCP, cfg, nil)
			return err
		}},
		{"fleet-sapp-cp/inverted-delay-bounds", func() error {
			cfg := presence.DefaultSAPPCPConfig()
			cfg.MinDelay, cfg.MaxDelay = time.Second, time.Millisecond
			_, err := presence.NewFleetSAPPControlPoint(f, validCP, cfg, nil)
			return err
		}},
		{"fleet/negative-shards", func() error {
			_, err := presence.NewFleet(presence.FleetConfig{Shards: -3})
			return err
		}},
		{"fleet/bad-listen-addr", func() error {
			_, err := presence.NewFleet(presence.FleetConfig{Shards: 1, ListenAddr: "no-such-host-xyz:badport"})
			return err
		}},
		{"fleet-dcpp-device/negative-min-gap", func() error {
			_, err := f.AddDevice(1, presence.NewDCPPDeviceBuilder(1,
				presence.DCPPDeviceConfig{MinGap: -time.Second, MinCPDelay: time.Second}))
			return err
		}},
		{"fleet-sapp-device/zero-nominal-load", func() error {
			cfg := presence.DefaultSAPPDeviceConfig()
			cfg.NominalLoad = -1
			_, err := f.AddDevice(1, presence.NewSAPPDeviceBuilder(1, cfg))
			return err
		}},
		{"fleet-device/zero-id", func() error {
			_, err := f.AddDevice(0, presence.NewDCPPDeviceBuilder(0, presence.DefaultDCPPDeviceConfig()))
			return err
		}},
		{"fleet-sapp-cp/zero-beta", func() error {
			cfg := presence.DefaultSAPPCPConfig()
			cfg.Beta = 0
			_, err := presence.NewFleetSAPPControlPoint(f, validCP, cfg, nil)
			return err
		}},
		{"resolve-scenario/unknown", func() error {
			_, err := presence.ResolveScenario("no-such-scenario-or-file")
			return err
		}},
		{"decode-scenario/garbage", func() error {
			_, err := presence.DecodeScenario([]byte(`{"protocol":"swim"}`))
			return err
		}},
		{"simulation/bad-protocol", func() error {
			_, err := presence.NewSimulation(presence.SimConfig{Protocol: "swim"})
			return err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("constructor panicked: %v", r)
				}
			}()
			if err := tc.call(); err == nil {
				t.Fatal("invalid configuration accepted")
			}
		})
	}
}

func TestNodeIDAlias(t *testing.T) {
	var id presence.NodeID = 7
	if id != ident.NodeID(7) {
		t.Fatal("NodeID alias broken")
	}
	if presence.Version == "" {
		t.Fatal("version empty")
	}
}

func TestDiscoveryFacade(t *testing.T) {
	w, err := presence.NewSimulation(presence.SimConfig{
		Protocol: presence.ProtocolDCPP,
		Seed:     3,
		Devices:  2,
		Discovery: presence.DiscoveryConfig{
			Enabled:          true,
			Announce:         presence.AnnouncerConfig{MaxAge: 30 * time.Second, Period: 10 * time.Second},
			ProbeOnDiscovery: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := w.AddCP()
	if err != nil {
		t.Fatal(err)
	}
	w.Run(time.Minute)
	for _, d := range w.Devices() {
		if _, ok := h.DiscoveredDevice(d.ID); !ok {
			t.Fatalf("device %v not discovered through the facade", d.ID)
		}
	}
	if len(w.Devices()) != 2 {
		t.Fatalf("Devices() = %d", len(w.Devices()))
	}
}

func TestRenderPlotFacade(t *testing.T) {
	w, err := presence.NewSimulation(presence.SimConfig{Protocol: presence.ProtocolDCPP, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddCP(); err != nil {
		t.Fatal(err)
	}
	w.Run(30 * time.Second)
	out := presence.RenderPlot([]*presence.TimeSeries{w.DeviceLoad().Series()},
		presence.PlotOptions{Title: "load", Width: 40, Height: 8})
	if !strings.Contains(out, "load") || !strings.Contains(out, "+") {
		t.Fatalf("plot output unexpected:\n%s", out)
	}
}
