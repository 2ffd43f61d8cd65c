package sapp

import (
	"fmt"
	"time"

	"presence/internal/core"
)

// CP defaults from the paper: α_inc = 2, α_dec = 3/2, β = 3/2,
// δ_min = 0.02 s, δ_max = 10 s.
const (
	DefaultAlphaInc = 2.0
	DefaultAlphaDec = 1.5
	DefaultBeta     = 1.5
)

// Default delay bounds from the paper's steady-state study.
const (
	DefaultMinDelay = 20 * time.Millisecond
	DefaultMaxDelay = 10 * time.Second
)

// CPConfig parameterises the SAPP control-point adaptation rule (1).
type CPConfig struct {
	// AlphaInc (α_inc > 1) multiplies δ when the device looks overloaded.
	AlphaInc float64
	// AlphaDec (α_dec > 1) divides δ when the device looks underloaded.
	AlphaDec float64
	// Beta (β > 1) bounds the tolerated band [L_ideal/β, β·L_ideal].
	Beta float64
	// IdealLoad is L_ideal, the reference constant shared with devices.
	IdealLoad float64
	// MinDelay and MaxDelay bound δ (δ_min ≤ δ ≤ δ_max).
	MinDelay time.Duration
	MaxDelay time.Duration
	// InitialDelay is δ at join time (δ₀). The paper does not specify it;
	// zero means MinDelay — a greedy join, which reproduces the paper's
	// dynamics: the joint multiplicative descent from δ_min overshoots,
	// and the ensuing race between fast and slow CPs produces the
	// starvation of Figs. 2-4. (A conservative δ₀ = MaxDelay lands the
	// system softly inside the tolerated band and freezes it there with
	// only moderate spread.)
	InitialDelay time.Duration
}

// DefaultCPConfig returns the paper's CP parameters.
func DefaultCPConfig() CPConfig {
	return CPConfig{
		AlphaInc:  DefaultAlphaInc,
		AlphaDec:  DefaultAlphaDec,
		Beta:      DefaultBeta,
		IdealLoad: DefaultIdealLoad,
		MinDelay:  DefaultMinDelay,
		MaxDelay:  DefaultMaxDelay,
	}
}

// Validate checks the configuration.
func (c CPConfig) Validate() error {
	if c.AlphaInc <= 1 {
		return fmt.Errorf("sapp: AlphaInc %g must exceed 1", c.AlphaInc)
	}
	if c.AlphaDec <= 1 {
		return fmt.Errorf("sapp: AlphaDec %g must exceed 1", c.AlphaDec)
	}
	if c.Beta <= 1 {
		return fmt.Errorf("sapp: Beta %g must exceed 1", c.Beta)
	}
	if c.IdealLoad <= 0 {
		return fmt.Errorf("sapp: IdealLoad %g must be positive", c.IdealLoad)
	}
	if c.MinDelay <= 0 {
		return fmt.Errorf("sapp: MinDelay %v must be positive", c.MinDelay)
	}
	if c.MaxDelay < c.MinDelay {
		return fmt.Errorf("sapp: MaxDelay %v must be ≥ MinDelay %v", c.MaxDelay, c.MinDelay)
	}
	if c.InitialDelay != 0 && (c.InitialDelay < c.MinDelay || c.InitialDelay > c.MaxDelay) {
		return fmt.Errorf("sapp: InitialDelay %v outside [%v, %v]", c.InitialDelay, c.MinDelay, c.MaxDelay)
	}
	return nil
}

// Policy is the SAPP control-point delay policy. It keeps the state the
// paper's CP needs: the previous successful cycle's probe count and
// timestamp, and the current delay δ.
type Policy struct {
	cfg   CPConfig
	delay time.Duration

	havePrev bool
	prevPC   uint64
	prevAt   time.Duration

	lastLexp float64
}

var _ core.DelayPolicy = (*Policy)(nil)

// NewPolicy validates the configuration and returns a policy with
// δ = InitialDelay (or δ_min if unset).
func NewPolicy(cfg CPConfig) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d0 := cfg.InitialDelay
	if d0 == 0 {
		d0 = cfg.MinDelay
	}
	return &Policy{cfg: cfg, delay: d0}, nil
}

// Delay returns the current inter-probe-cycle delay δ.
func (p *Policy) Delay() time.Duration { return p.delay }

// LastLoad returns the most recent experienced-load estimate L_exp
// (0 until two successful cycles have completed).
func (p *Policy) LastLoad() float64 { return p.lastLexp }

// NextDelay implements the paper's adaptation rule (1):
//
//	δ' = min(α_inc·δ, δ_max)   if L_exp > β·L_ideal
//	δ' = max(δ/α_dec, δ_min)   if L_exp < L_ideal/β
//	δ' = δ                     otherwise
//
// with L_exp = (pc'−pc)/(t'−t) over consecutive successful cycles, where
// t is the reply time for a clean cycle and the answered probe's send
// time for a cycle that needed retransmission.
func (p *Policy) NextDelay(res core.CycleResult) time.Duration {
	var pc uint64
	switch rep := res.Payload.(type) {
	case core.SAPPReply:
		pc = rep.ProbeCount
	case *core.SAPPReply: // pooled form; valid only until this call returns
		pc = rep.ProbeCount
	default:
		// A reply from a non-SAPP device; keep the current schedule. The
		// runtime wires protocols consistently, so this only happens with
		// corrupted input.
		return p.delay
	}
	t := res.RepliedAt
	if res.Attempts > 1 {
		t = res.SentAt
	}
	if !p.havePrev {
		p.havePrev = true
		p.prevPC, p.prevAt = pc, t
		return p.delay
	}
	if pc < p.prevPC {
		// The device restarted and reset its counter; re-anchor.
		p.prevPC, p.prevAt = pc, t
		return p.delay
	}
	dt := (t - p.prevAt).Seconds()
	dpc := pc - p.prevPC
	p.prevPC, p.prevAt = pc, t
	if dt <= 0 {
		return p.delay
	}
	lexp := float64(dpc) / dt
	p.lastLexp = lexp
	switch {
	case lexp > p.cfg.Beta*p.cfg.IdealLoad:
		p.delay = minDuration(scale(p.delay, p.cfg.AlphaInc), p.cfg.MaxDelay)
	case lexp < p.cfg.IdealLoad/p.cfg.Beta:
		p.delay = maxDuration(scale(p.delay, 1/p.cfg.AlphaDec), p.cfg.MinDelay)
	}
	return p.delay
}

// scale multiplies a duration by a positive factor.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
