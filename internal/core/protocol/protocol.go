// Package protocol is the one table from a probe protocol's name to its
// engines: the device engine and the control point's delay policy. The
// simulator, the conformance replay, the admin plane and the daemons
// all build engines here, so a protocol's defaults and constructors
// are spelled once. It sits beside the engines, not in core, because
// the engines import core.
package protocol

import (
	"fmt"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/core/sapp"
	"presence/internal/ident"
)

// Name selects a probe protocol.
type Name string

// The paper's two protocols and the naive baseline.
const (
	SAPP  Name = "sapp"
	DCPP  Name = "dcpp"
	Naive Name = "naive"
)

// Valid reports whether n is a known protocol.
func (n Name) Valid() bool {
	switch n {
	case SAPP, DCPP, Naive:
		return true
	default:
		return false
	}
}

// Params parameterises the engines. Each protocol reads only its own
// fields; zero values mean the paper's values.
type Params struct {
	// SAPPDevice/SAPPCP parameterise SAPP.
	SAPPDevice sapp.DeviceConfig
	SAPPCP     sapp.CPConfig
	// DCPPDevice/DCPPPolicy parameterise DCPP. The zero DCPPPolicy is
	// already the paper's behaviour.
	DCPPDevice dcpp.DeviceConfig
	DCPPPolicy dcpp.PolicyConfig
	// NaivePeriod is the fixed probe period of the baseline (zero =
	// 1 s).
	NaivePeriod time.Duration
}

// WithDefaults returns a copy in which every zero engine configuration
// is replaced by the paper's values.
func (p Params) WithDefaults() Params {
	if p.SAPPDevice == (sapp.DeviceConfig{}) {
		p.SAPPDevice = sapp.DefaultDeviceConfig()
	}
	if p.SAPPCP == (sapp.CPConfig{}) {
		p.SAPPCP = sapp.DefaultCPConfig()
	}
	if p.DCPPDevice == (dcpp.DeviceConfig{}) {
		p.DCPPDevice = dcpp.DefaultDeviceConfig()
	}
	if p.NaivePeriod == 0 {
		p.NaivePeriod = naive.DefaultPeriod
	}
	return p
}

// NewDevice builds protocol n's device engine for node id.
func (n Name) NewDevice(id ident.NodeID, env core.Env, p Params) (core.Device, error) {
	p = p.WithDefaults()
	switch n {
	case SAPP:
		return sapp.NewDevice(id, env, p.SAPPDevice)
	case DCPP:
		return dcpp.NewDevice(id, env, p.DCPPDevice)
	case Naive:
		return naive.NewDevice(id, env)
	default:
		return nil, fmt.Errorf("unknown protocol %q", n)
	}
}

// NewPolicy builds protocol n's control-point delay policy.
func (n Name) NewPolicy(p Params) (core.DelayPolicy, error) {
	p = p.WithDefaults()
	switch n {
	case SAPP:
		return sapp.NewPolicy(p.SAPPCP)
	case DCPP:
		return dcpp.NewPolicy(p.DCPPPolicy)
	case Naive:
		return naive.NewPolicy(p.NaivePeriod)
	default:
		return nil, fmt.Errorf("unknown protocol %q", n)
	}
}
