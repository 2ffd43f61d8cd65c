// Package dcpp implements the device-controlled probe protocol, the
// paper's contribution (its Section 4).
//
// Instead of letting control points estimate the device load, the device
// schedules them: it remembers the next free probe slot nt and answers
// each probe received at time t with the wait nt'−t, where
//
//	nt' = max{nt, t} + ∆(nt, t),   ∆(nt, t) = max{δ_min, d_min − b},
//
// with b the backlog max{nt−t, 0}. Two invariants follow directly
// (paper's constraints (i) and (ii)):
//
//	(i)  consecutive scheduled slots are at least δ_min apart, so the
//	     steady device load never exceeds L_nom = 1/δ_min, and
//	(ii) the wait handed to a CP is at least d_min, so no CP is asked to
//	     probe more often than its maximum frequency f_max = 1/d_min.
//
// Deviation from the paper's literal formula: the backlog is clamped at
// zero. Read literally, ∆ = max{δ_min, d_min−(nt−t)} grows without bound
// for an idle device (nt ≪ t). Clamping is identical for a busy device
// and gives the obviously intended idle behaviour (a lone CP probes at
// f_max).
package dcpp

import (
	"fmt"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
)

// Paper defaults (Section 5): δ_min = 0.1 s (L_nom = 10 probes/s) and
// d_min = 0.5 s (f_max = 2 probes/s per CP).
const (
	DefaultMinGap     = 100 * time.Millisecond
	DefaultMinCPDelay = 500 * time.Millisecond
)

// DeviceConfig parameterises a DCPP device.
type DeviceConfig struct {
	// MinGap is δ_min = 1/L_nom: the minimum spacing between scheduled
	// probe slots, i.e. the inverse of the probe load the device is able
	// or willing to cope with.
	MinGap time.Duration
	// MinCPDelay is d_min = 1/f_max: the minimum wait handed to any CP,
	// i.e. the inverse of the maximum per-CP probe frequency.
	MinCPDelay time.Duration

	// DedupeTTL bounds the per-CP assignment memory used to answer
	// retransmitted probes idempotently under packet loss (an extension;
	// the paper assumes no losses). Entries older than the TTL are
	// pruned. Zero means 30 s; negative disables deduplication entirely,
	// restoring the paper's literal behaviour where every probe claims a
	// fresh slot.
	DedupeTTL time.Duration
	// MaxEntries caps the assignment table ("implementable on small
	// computing devices" implies bounded state). When full, the oldest
	// entry is evicted. Zero means 4096.
	MaxEntries int
}

// DefaultDeviceConfig returns the paper's DCPP parameters.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{MinGap: DefaultMinGap, MinCPDelay: DefaultMinCPDelay}
}

func (c *DeviceConfig) applyDefaults() {
	if c.DedupeTTL == 0 {
		c.DedupeTTL = 30 * time.Second
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
}

// Validate checks the configuration.
func (c DeviceConfig) Validate() error {
	if c.MinGap <= 0 {
		return fmt.Errorf("dcpp: MinGap %v must be positive", c.MinGap)
	}
	if c.MinCPDelay <= 0 {
		return fmt.Errorf("dcpp: MinCPDelay %v must be positive", c.MinCPDelay)
	}
	if c.MaxEntries < 0 {
		return fmt.Errorf("dcpp: MaxEntries %d must be non-negative", c.MaxEntries)
	}
	return nil
}

// NominalLoad returns L_nom = 1/δ_min in probes per second.
func (c DeviceConfig) NominalLoad() float64 { return 1 / c.MinGap.Seconds() }

// MaxCPFrequency returns f_max = 1/d_min in probes per second.
func (c DeviceConfig) MaxCPFrequency() float64 { return 1 / c.MinCPDelay.Seconds() }

// assignment remembers the slot handed to a CP so that retransmissions of
// the same probe cycle receive the same answer instead of claiming a new
// slot.
type assignment struct {
	cycle      uint32
	probeAt    time.Duration // absolute time of the assigned slot (nt')
	assignedAt time.Duration
}

// Device is the DCPP device engine.
type Device struct {
	id  ident.NodeID
	env core.Env
	cfg DeviceConfig

	nt          time.Duration
	assignments map[ident.NodeID]assignment
	probesTotal uint64
	dupReplies  uint64
}

var _ core.Device = (*Device)(nil)

// NewDevice validates the configuration and returns a device engine.
func NewDevice(id ident.NodeID, env core.Env, cfg DeviceConfig) (*Device, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("dcpp: invalid device id")
	}
	if env == nil {
		return nil, fmt.Errorf("dcpp: nil env")
	}
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		id:          id,
		env:         env,
		cfg:         cfg,
		assignments: make(map[ident.NodeID]assignment),
	}, nil
}

// ID returns the device's node id.
func (d *Device) ID() ident.NodeID { return d.id }

// NextSlot returns the current schedule pointer nt.
func (d *Device) NextSlot() time.Duration { return d.nt }

// ProbesTotal returns the number of probes answered (including
// deduplicated retransmissions).
func (d *Device) ProbesTotal() uint64 { return d.probesTotal }

// DupReplies returns how many probes were answered from the assignment
// table rather than by claiming a new slot.
func (d *Device) DupReplies() uint64 { return d.dupReplies }

// Entries returns the current size of the assignment table.
func (d *Device) Entries() int { return len(d.assignments) }

// Start arms the periodic assignment-table sweep when deduplication is
// enabled.
func (d *Device) Start() {
	if d.cfg.DedupeTTL > 0 {
		d.env.SetAlarm(d.env.Now() + d.cfg.DedupeTTL)
	}
}

// OnProbe schedules the probing CP's next slot and replies with the wait.
func (d *Device) OnProbe(from ident.NodeID, m core.ProbeMsg) {
	now := d.env.Now()
	d.probesTotal++
	if d.cfg.DedupeTTL > 0 {
		if a, ok := d.assignments[from]; ok && a.cycle == m.Cycle {
			// A retransmission of a probe we already answered: repeat the
			// assignment instead of claiming another slot. The remaining
			// wait shrinks with elapsed time; it never goes negative.
			wait := a.probeAt - now
			if wait < 0 {
				wait = 0
			}
			d.dupReplies++
			d.reply(from, m, wait)
			return
		}
	}
	// nt' = max{nt, t} + max{δ_min, d_min − b} with b = max{nt−t, 0}.
	backlog := d.nt - now
	if backlog < 0 {
		backlog = 0
	}
	gap := d.cfg.MinCPDelay - backlog
	if gap < d.cfg.MinGap {
		gap = d.cfg.MinGap
	}
	d.nt = now + backlog + gap
	if d.cfg.DedupeTTL > 0 {
		d.remember(from, assignment{cycle: m.Cycle, probeAt: d.nt, assignedAt: now})
	}
	d.reply(from, m, d.nt-now)
}

func (d *Device) reply(to ident.NodeID, m core.ProbeMsg, wait time.Duration) {
	d.env.Send(to, core.AcquireReply(d.id, m.Cycle, m.Attempt, core.AcquireDCPPReply(wait)))
}

// remember stores an assignment, evicting the oldest entry if the table
// is full.
func (d *Device) remember(from ident.NodeID, a assignment) {
	if len(d.assignments) >= d.cfg.MaxEntries {
		if _, exists := d.assignments[from]; !exists {
			var oldest ident.NodeID
			oldestAt := time.Duration(1<<63 - 1)
			for id, e := range d.assignments {
				if e.assignedAt < oldestAt {
					oldest, oldestAt = id, e.assignedAt
				}
			}
			delete(d.assignments, oldest)
		}
	}
	d.assignments[from] = a
}

// OnAlarm sweeps expired entries from the assignment table and re-arms.
func (d *Device) OnAlarm() {
	if d.cfg.DedupeTTL <= 0 {
		return
	}
	now := d.env.Now()
	for id, a := range d.assignments {
		if a.assignedAt+d.cfg.DedupeTTL < now {
			delete(d.assignments, id)
		}
	}
	d.env.SetAlarm(now + d.cfg.DedupeTTL)
}
