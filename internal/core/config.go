package core

import (
	"fmt"
	"time"
)

// Paper defaults for the bounded-retransmission probe cycle: "In all
// simulation studies in this paper TOF equals 0.022 (i.e., two times the
// round-trip delay of the considered network + the maximal computation
// time of the device), and TOS equals 0.021 (1 times round-trip delay +
// maximal computation time of the device)." Probes are retransmitted
// maximally three times.
const (
	DefaultFirstTimeout   = 22 * time.Millisecond
	DefaultRetryTimeout   = 21 * time.Millisecond
	DefaultMaxRetransmits = 3
)

// RetransmitConfig parameterises the probe cycle of Fig. 1.
type RetransmitConfig struct {
	// FirstTimeout (TOF) is the wait after the first probe of a cycle.
	FirstTimeout time.Duration
	// RetryTimeout (TOS) is the wait after each retransmission.
	// Typically TOS < TOF: once the first probe goes unanswered, absence
	// is already likely, so the remaining probes are sent in quicker
	// succession to shorten detection time.
	RetryTimeout time.Duration
	// MaxRetransmits is the number of retransmissions after the first
	// probe. With the paper's value 3, a cycle sends at most 4 probes.
	MaxRetransmits int
}

// DefaultRetransmit returns the paper's probe-cycle parameters.
func DefaultRetransmit() RetransmitConfig {
	return RetransmitConfig{
		FirstTimeout:   DefaultFirstTimeout,
		RetryTimeout:   DefaultRetryTimeout,
		MaxRetransmits: DefaultMaxRetransmits,
	}
}

// Validate checks the configuration.
func (c RetransmitConfig) Validate() error {
	if c.FirstTimeout <= 0 {
		return fmt.Errorf("core: FirstTimeout %v must be positive", c.FirstTimeout)
	}
	if c.RetryTimeout <= 0 {
		return fmt.Errorf("core: RetryTimeout %v must be positive", c.RetryTimeout)
	}
	if c.MaxRetransmits < 0 {
		return fmt.Errorf("core: MaxRetransmits %d must be non-negative", c.MaxRetransmits)
	}
	return nil
}

// WorstCaseDetection returns the longest interval between the start of a
// probe cycle and the declaration of absence: TOF + MaxRetransmits·TOS.
func (c RetransmitConfig) WorstCaseDetection() time.Duration {
	return c.FirstTimeout + time.Duration(c.MaxRetransmits)*c.RetryTimeout
}
