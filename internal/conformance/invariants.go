package conformance

import (
	"fmt"
	"net/netip"
	"sync"

	"presence/internal/core"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/wire"
)

// Checker verifies protocol invariants online, from two synchronised
// feeds: the memnet packet tap (every datagram outcome, decoded with
// the production wire codec) and the fleet's presence listeners (the
// verdicts the runtime hands to the application). Both feeds reach the
// checker from the owning shard's loop, so per-CP event order is the
// runtime's own order.
//
// Invariants checked (violations are collected, not fatal):
//
//  1. Absent budget — a DeviceLost verdict requires the CP's final
//     probe cycle to have sent the full budget (MaxRetransmits+1
//     probes): absence is declared only after the configured
//     consecutive-loss budget is exhausted.
//  2. Cycle monotonicity — attempt-0 probes of one CP carry strictly
//     increasing cycle numbers, and a new cycle may begin only after a
//     reply for the previous cycle was delivered.
//  3. Attempt discipline — within a cycle, attempts number 0, 1, 2, …
//     consecutively, never exceeding the budget.
//  4. Bye-before-silence — a DeviceBye verdict requires a bye frame
//     delivered to the CP's shard first, and neither verdict is
//     followed by further probes from that CP.
//  5. Silence after removal — a removed CP sends no further probes.
//
// Send order: the "no probe after" rules of 4 and 5 judge a probe by
// when it was sent, not when the tap reported it. A delayed probe is
// reported at delivery, which can come after a verdict or a removal
// it preceded. So the caller marks each verdict and removal with the
// network's send count at that instant (memnet Counters.Sent), and
// only a probe with a larger PacketEvent.SendSeq breaks the rule; this
// holds under any delay model.
//
// Ordering assumption: the cycle and attempt invariants (1–3) treat
// packet-tap order as send order. That holds because every protocol
// gap between consecutive probes of one CP (TOS, at least 21 ms) far
// exceeds the injected one-way delay (paper modes plus reorder hold,
// under 3 ms). Fault plans with delays approaching the protocol
// timeouts would need a looser checker.
type Checker struct {
	mu        sync.Mutex
	maxProbes int // per-cycle budget: MaxRetransmits + 1

	deviceAddr netip.AddrPort
	byID       map[ident.NodeID]*cpState
	byShard    map[netip.AddrPort][]*cpState
	cycleOwner map[uint32]*cpState

	packets    uint64
	violations []string
	overflow   int
}

// cpState is the checker's shadow of one control point.
type cpState struct {
	id        ident.NodeID
	shard     netip.AddrPort
	started   bool
	curCycle  uint32
	attempts  int
	lastAtt   int
	replyIn   bool // reply for curCycle delivered to the CP's shard
	byeIn     bool // bye frame delivered to the CP's shard
	lost, bye bool // terminal verdicts seen
	removed   bool
	// verdictMark and removedMark are the network's send counts when the
	// first terminal verdict and the removal were marked: probes sent
	// after them (SendSeq above the mark) break invariants 4 and 5.
	verdictMark, removedMark uint64
}

// maxViolations bounds the retained violation list; further ones are
// only counted.
const maxViolations = 32

// NewChecker builds a checker for the given retransmit configuration
// (zero value = paper defaults).
func NewChecker(rt core.RetransmitConfig) *Checker {
	if rt == (core.RetransmitConfig{}) {
		rt = core.DefaultRetransmit()
	}
	return &Checker{
		maxProbes:  rt.MaxRetransmits + 1,
		byID:       make(map[ident.NodeID]*cpState),
		byShard:    make(map[netip.AddrPort][]*cpState),
		cycleOwner: make(map[uint32]*cpState),
	}
}

// SetDevice names the monitored device's transport address. With it
// set, the checker enforces frame direction: probes must be addressed
// to the device, and only replies/byes originating from it count
// towards the cycle-advance and bye-before-silence invariants. Unset
// (the zero AddrPort), direction checks are skipped.
func (c *Checker) SetDevice(addr netip.AddrPort) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deviceAddr = addr
}

// RegisterCP announces a control point before it is added to the fleet
// (its first probe leaves during AddControlPoint).
func (c *Checker) RegisterCP(id ident.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byID[id] = &cpState{id: id}
}

// SetShard records which shard endpoint hosts the CP — bye frames are
// addressed to shards, not CPs.
func (c *Checker) SetShard(id ident.NodeID, shard netip.AddrPort) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.byID[id]
	if st == nil {
		return
	}
	st.shard = shard
	c.byShard[shard] = append(c.byShard[shard], st)
}

// CPRemoved marks a scheduled (silent) leave; the runtime must send no
// further probes for the CP. mark is the network's send count
// (memnet Counters.Sent) read after Remove returned: probes sent up to
// it may still be delivered, any sent later are violations.
func (c *Checker) CPRemoved(id ident.NodeID, mark uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.byID[id]; st != nil {
		st.removed, st.removedMark = true, mark
	}
}

// CPLost records a DeviceLost verdict. Call from the presence listener
// (on the shard loop); mark is the network's send count read there.
func (c *Checker) CPLost(id ident.NodeID, mark uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.byID[id]
	if st == nil {
		c.violate("DeviceLost for unknown CP %v", id)
		return
	}
	if st.lost || st.bye {
		c.violate("cp %v: second terminal verdict (lost after lost=%v bye=%v)", id, st.lost, st.bye)
	} else {
		st.verdictMark = mark
	}
	st.lost = true
	if st.attempts != c.maxProbes {
		c.violate("cp %v: ABSENT verdict with %d of %d probes of the final cycle sent — consecutive-loss budget not exhausted",
			id, st.attempts, c.maxProbes)
	}
}

// CPBye records a DeviceBye verdict. Call from the presence listener;
// mark is as for CPLost.
func (c *Checker) CPBye(id ident.NodeID, mark uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.byID[id]
	if st == nil {
		c.violate("DeviceBye for unknown CP %v", id)
		return
	}
	if st.lost || st.bye {
		c.violate("cp %v: second terminal verdict (bye after lost=%v bye=%v)", id, st.lost, st.bye)
	} else {
		st.verdictMark = mark
	}
	st.bye = true
	if !st.byeIn {
		c.violate("cp %v: DeviceBye verdict without a delivered bye frame (bye-before-silence broken)", id)
	}
}

// OnPacket consumes one memnet packet event. Install via
// Network.Observe before traffic starts.
func (c *Checker) OnPacket(ev memnet.PacketEvent) {
	// Structural decode only: the checker is a passive observer with no
	// keys, so a v2 frame's tag is copied but not verified — the
	// invariants below judge sources, cycles and ordering, which auth
	// does not change.
	var f wire.Frame
	err := wire.DecodeFrame(ev.Frame, &f)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.packets++
	if err != nil {
		if ev.Injected || ev.Duplicate {
			// Attack traffic is allowed to be garbage (a bit-flipped copy
			// usually is); only frames the runtime sent must decode.
			return
		}
		c.violate("undecodable frame %s→%s: %v", ev.From, ev.To, err)
		return
	}
	msg := checkerMsg(&f)
	switch m := msg.(type) {
	case core.ProbeMsg:
		if ev.Duplicate || ev.Injected {
			// An injected copy or attack traffic, not a runtime send: the
			// send-side invariants judge only what the runtime did.
			return
		}
		if c.deviceAddr.IsValid() && ev.To != c.deviceAddr {
			c.violate("probe from %v addressed to %s, not the device %s", m.From, ev.To, c.deviceAddr)
		}
		c.onProbe(m, ev.SendSeq)
	case core.ReplyMsg:
		if ev.Verdict != memnet.Delivered {
			return
		}
		if c.deviceAddr.IsValid() && ev.From != c.deviceAddr {
			if !ev.Injected {
				// Misdirected runtime traffic is a harness bug; a forged
				// reply from an attacker is the workload under test.
				c.violate("reply for cycle %d from non-device address %s", m.Cycle, ev.From)
			}
			return // a forged reply must not satisfy the cycle-advance invariant
		}
		if ev.Injected {
			return // replayed (device-sourced) copy: no state effect either
		}
		if st := c.cycleOwner[m.Cycle]; st != nil && st.started && st.curCycle == m.Cycle {
			st.replyIn = true
		}
	case core.ByeMsg:
		if ev.Verdict != memnet.Delivered || ev.Injected {
			// A spoofed bye must not satisfy bye-before-silence even when
			// its source address mimics the device's.
			return
		}
		if c.deviceAddr.IsValid() && ev.From != c.deviceAddr {
			c.violate("bye from non-device address %s", ev.From)
			return // a forged bye must not satisfy bye-before-silence
		}
		for _, st := range c.byShard[ev.To] {
			st.byeIn = true
		}
	}
}

// checkerMsg maps a structurally decoded frame to the message shape the
// invariants inspect; kinds the checker ignores map to nil.
func checkerMsg(f *wire.Frame) core.Message {
	switch f.Kind {
	case wire.KindProbe:
		return core.ProbeMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt}
	case wire.KindReplySAPP, wire.KindReplyDCPP, wire.KindReplyEmpty:
		return core.ReplyMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt}
	case wire.KindBye:
		return core.ByeMsg{From: f.From}
	default:
		return nil
	}
}

// onProbe applies the send-side invariants to a probe the network
// counted as send number seq. Caller holds c.mu.
func (c *Checker) onProbe(m core.ProbeMsg, seq uint64) {
	st := c.byID[m.From]
	if st == nil {
		c.violate("probe from unknown CP %v", m.From)
		return
	}
	if (st.lost || st.bye) && seq > st.verdictMark {
		c.violate("cp %v: probe (cycle %d attempt %d) after terminal verdict", m.From, m.Cycle, m.Attempt)
		return
	}
	if st.removed && seq > st.removedMark {
		c.violate("cp %v: probe (cycle %d attempt %d) after removal", m.From, m.Cycle, m.Attempt)
		return
	}
	if !st.started || m.Cycle != st.curCycle {
		if st.started {
			// Cycle numbers live in a staggered uint32 space; compare by
			// signed distance so wraparound stays monotone.
			if int32(m.Cycle-st.curCycle) <= 0 {
				c.violate("cp %v: cycle regressed %d → %d", m.From, st.curCycle, m.Cycle)
			}
			if !st.replyIn {
				c.violate("cp %v: cycle %d began without a delivered reply for cycle %d", m.From, m.Cycle, st.curCycle)
			}
		}
		if m.Attempt != 0 {
			c.violate("cp %v: cycle %d began at attempt %d", m.From, m.Cycle, m.Attempt)
		}
		st.started = true
		st.curCycle = m.Cycle
		st.attempts = 1
		st.lastAtt = int(m.Attempt)
		st.replyIn = false
		c.cycleOwner[m.Cycle] = st
		return
	}
	if int(m.Attempt) != st.lastAtt+1 {
		c.violate("cp %v: cycle %d attempt sequence broken (%d after %d)", m.From, m.Cycle, m.Attempt, st.lastAtt)
	}
	st.lastAtt = int(m.Attempt)
	st.attempts++
	if st.attempts > c.maxProbes {
		c.violate("cp %v: cycle %d exceeded the %d-probe budget", m.From, m.Cycle, c.maxProbes)
	}
}

// violate records one violation. Caller holds c.mu.
func (c *Checker) violate(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.overflow++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Violations returns the recorded violations (plus a summary line when
// the cap was hit). Empty means every invariant held.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	if c.overflow > 0 {
		out = append(out, fmt.Sprintf("… and %d more violations", c.overflow))
	}
	return out
}

// Packets returns the number of tapped packet events — a sanity gauge
// that the tap actually saw traffic.
func (c *Checker) Packets() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.packets
}
