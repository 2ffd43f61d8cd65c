package simrun

import (
	"math"
	"testing"
	"time"

	"presence/internal/core/protocol"
)

// TestWorldExecutionDeterminism: two worlds built from the same seed must
// execute the identical number of kernel events and measure bit-identical
// statistics — the contract the zero-allocation kernel and the pooled
// message paths must uphold.
func TestWorldExecutionDeterminism(t *testing.T) {
	run := func() (executed uint64, mean, variance float64, sent, delivered uint64) {
		w, err := NewWorld(Config{Protocol: protocol.DCPP, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.StartChurn(DefaultUniformChurn()); err != nil {
			t.Fatal(err)
		}
		w.Run(120 * time.Second)
		load := w.DeviceLoad().Stats()
		c := w.Net().Counters()
		return w.Sim().Executed(), load.Mean(), load.Variance(), c.Sent, c.Delivered
	}
	e1, m1, v1, s1, d1 := run()
	e2, m2, v2, s2, d2 := run()
	if e1 != e2 {
		t.Errorf("Executed() differs across identical runs: %d vs %d", e1, e2)
	}
	if math.Float64bits(m1) != math.Float64bits(m2) {
		t.Errorf("load mean differs: %g vs %g", m1, m2)
	}
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Errorf("load variance differs: %g vs %g", v1, v2)
	}
	if s1 != s2 || d1 != d2 {
		t.Errorf("network counters differ: sent %d/%d, delivered %d/%d", s1, s2, d1, d2)
	}
}

// TestWorldOverlayDeterminism pins the once-flaky overlay path: leave
// dissemination floods neighbours in sorted order, so the notice count is
// a pure function of the seed.
func TestWorldOverlayDeterminism(t *testing.T) {
	run := func() (notices uint64, informed int) {
		w, err := NewWorld(Config{Protocol: protocol.SAPP, Seed: 99, EnableOverlay: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddCPs(12); err != nil {
			t.Fatal(err)
		}
		w.Run(60 * time.Second)
		killAt := w.KillDevice()
		w.Run(killAt + 25*time.Second)
		dev := w.Device().ID
		for _, h := range w.ActiveCPs() {
			notices += h.Overlay.NoticesSent()
			if _, ok := h.Overlay.Informed(dev); ok {
				informed++
			}
		}
		return notices, informed
	}
	n1, i1 := run()
	n2, i2 := run()
	if n1 != n2 || i1 != i2 {
		t.Errorf("overlay run not reproducible: notices %d/%d, informed %d/%d", n1, n2, i1, i2)
	}
}
