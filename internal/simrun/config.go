// Package simrun is the simulation runtime: it binds the protocol
// engines (internal/core/...) to the discrete-event kernel (internal/des)
// and the simulated network (internal/simnet), provides the churn drivers
// used in the paper's scenarios, and instruments the world with the
// measurements the evaluation needs (device load bins, per-CP probe
// frequency traces, detection latencies, buffer occupancy).
//
// A World is fully deterministic: its behaviour is a pure function of
// (Config, Seed). All activity happens on the caller's goroutine inside
// World.Run.
package simrun

import (
	"fmt"
	"io"
	"time"

	"presence/internal/core"
	"presence/internal/core/discovery"
	"presence/internal/core/protocol"
	"presence/internal/simnet"
)

// ProcessingConfig models the device's computation time: each reply is
// delayed by a uniform draw from [Min, Max]. The paper's timeouts assume
// a maximal computation time of 20 ms (TOF = 2·RTT + 20 ms), so the
// default is uniform [0, 20 ms].
type ProcessingConfig struct {
	// Disabled turns processing delay off entirely (replies leave the
	// device instantly).
	Disabled bool
	// Min and Max bound the uniform draw. Both zero (with Disabled
	// false) selects the paper defaults [0, 20 ms].
	Min, Max time.Duration
}

func (p *ProcessingConfig) applyDefaults() {
	if p.Disabled {
		return
	}
	if p.Min == 0 && p.Max == 0 {
		p.Max = 20 * time.Millisecond
	}
}

func (p ProcessingConfig) validate() error {
	if p.Disabled {
		return nil
	}
	if p.Min < 0 || p.Max < p.Min {
		return fmt.Errorf("simrun: processing bounds [%v, %v] invalid", p.Min, p.Max)
	}
	return nil
}

// Config assembles a World.
type Config struct {
	// Protocol selects SAPP, DCPP or the naive baseline.
	Protocol protocol.Name
	// Seed determines every random draw in the run.
	Seed uint64
	// Devices is the number of devices in the world (default 1, the
	// paper's setting — it argues devices are mutually independent).
	// Every control point monitors every device with an independent
	// prober and policy.
	Devices int

	// Net configures the simulated network. Zero value = paper network
	// (three-mode delays, no loss, 20 000-message buffer).
	Net simnet.Config
	// Processing models device computation time.
	Processing ProcessingConfig
	// Retransmit configures the probe cycle. Zero value = paper values
	// (TOF 22 ms, TOS 21 ms, 3 retransmissions).
	Retransmit core.RetransmitConfig

	// Params parameterises the protocol engines (zero values = paper
	// values).
	protocol.Params

	// LoadBin is the width of the device-load measurement bins (zero =
	// 1 s, which reproduces the paper's Fig. 5 variance).
	LoadBin time.Duration
	// RecordCPSeries enables per-CP probe-frequency (1/δ) time series —
	// the traces of Figs. 2-4.
	RecordCPSeries bool
	// SeriesWindow restricts CP series recording to [From, To) when To >
	// 0 (Fig. 3 records one minute out of a 20 000 s run).
	SeriesWindow struct{ From, To time.Duration }
	// SeriesDecimate keeps every n-th sample of CP series (0/1 = all).
	SeriesDecimate int
	// EnableOverlay attaches a leave-dissemination overlay manager to
	// every CP (the extension experiments).
	EnableOverlay bool
	// Discovery enables the UPnP-style announcement layer.
	Discovery DiscoveryConfig
	// Trace, when non-nil, receives a line-oriented event log of the run
	// (joins, leaves, deliveries, detections). Two runs with the same
	// seed produce byte-identical traces.
	Trace io.Writer
}

// DiscoveryConfig enables device announcements and CP-side registries.
type DiscoveryConfig struct {
	// Enabled turns the layer on. When enabled, CPs create probers
	// dynamically as devices are discovered instead of being wired to
	// all devices at join time.
	Enabled bool
	// Announce parameterises the device announcers (zero values =
	// discovery package defaults: max-age 60 s, period max-age/3).
	Announce discovery.AnnouncerConfig
	// Sweep is the CP registry expiry-check interval (zero = 1 s).
	Sweep time.Duration
	// ProbeOnDiscovery starts a probe-protocol prober for each
	// discovered device. Disabling it leaves CPs with announcement
	// expiry as their only liveness signal — the baseline the paper's
	// "enhancing discovery with liveness" premise argues against.
	ProbeOnDiscovery bool
}

func (c *Config) applyDefaults() {
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.Retransmit == (core.RetransmitConfig{}) {
		c.Retransmit = core.DefaultRetransmit()
	}
	c.Params = c.Params.WithDefaults()
	if c.LoadBin == 0 {
		c.LoadBin = time.Second
	}
	c.Processing.applyDefaults()
}

// WithDefaults returns a copy with zero-value fields replaced by the
// paper defaults — the same normalisation NewWorld applies internally,
// exposed for runtimes that must mirror the simulator's effective
// configuration (internal/conformance builds the fleet replay's
// engines from it).
func (c Config) WithDefaults() Config {
	c.applyDefaults()
	return c
}

// Validate checks the assembled configuration.
func (c Config) Validate() error {
	if !c.Protocol.Valid() {
		return fmt.Errorf("simrun: unknown protocol %q", c.Protocol)
	}
	if err := c.Retransmit.Validate(); err != nil {
		return err
	}
	if err := c.Processing.validate(); err != nil {
		return err
	}
	if c.LoadBin < 0 {
		return fmt.Errorf("simrun: LoadBin %v must be non-negative", c.LoadBin)
	}
	if c.Devices < 1 {
		return fmt.Errorf("simrun: Devices %d must be positive", c.Devices)
	}
	if c.NaivePeriod < 0 {
		return fmt.Errorf("simrun: NaivePeriod %v must be non-negative", c.NaivePeriod)
	}
	return nil
}
