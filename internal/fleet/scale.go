package fleet

import "time"

// DefaultJoinRamp is the default join spread: 200 µs per CP (2 s at
// 10k), enough to keep first-probe bursts from overflowing
// rmem_max-clamped socket buffers.
func DefaultJoinRamp(cps int) time.Duration {
	return time.Duration(cps) * 200 * time.Microsecond
}

// JoinPacer spreads a mass join over a ramp, sleeping briefly every few
// adds so the joining CPs' first probes do not land in one synchronized
// burst (which overflows socket buffers and then re-synchronizes as a
// retransmit storm). A zero ramp means DefaultJoinRamp; negative
// disables pacing.
type JoinPacer struct {
	pause time.Duration
	n     int
}

// joinBatch is how many adds go between pacing sleeps.
const joinBatch = 64

// NewJoinPacer builds a pacer for joining cps control points over ramp.
func NewJoinPacer(cps int, ramp time.Duration) *JoinPacer {
	if ramp == 0 {
		ramp = DefaultJoinRamp(cps)
	}
	p := &JoinPacer{}
	if ramp > 0 && cps > 0 {
		p.pause = ramp * joinBatch / time.Duration(cps)
	}
	return p
}

// Tick is called after each add; it sleeps at batch boundaries.
func (p *JoinPacer) Tick() {
	p.n++
	if p.pause > 0 && p.n%joinBatch == 0 {
		time.Sleep(p.pause)
	}
}
