package trace

// Flight recorder: a bounded in-memory ring of probe-lifecycle events,
// one per fleet shard. Where the Tracer above streams a simulation's
// full history to a writer, the flight recorder answers a different
// question — "what were the last N things this shard did before the
// verdict fired?" — on a live daemon, at hot-path cost: recording one
// event is a couple of stores into a preallocated ring, no allocation,
// no locking of its own (the shard's event loop is its only user:
// it records, and dumps run as commands on that loop).

import (
	"fmt"
	"io"
	"sort"
	"time"

	"presence/internal/ident"
)

// EventKind classifies one flight-recorder event.
type EventKind uint8

const (
	EvNone EventKind = iota
	// EvProbeSent: a probe datagram left for Device (CP, Cycle, Attempt).
	EvProbeSent
	// EvReplyMatched: a reply matched a pending probe and was accepted.
	EvReplyMatched
	// EvAttemptExpired: a probe attempt timed out with no reply.
	EvAttemptExpired
	// EvVerdictLost: the prober declared Device lost.
	EvVerdictLost
	// EvVerdictBye: Device announced a clean departure (BYE).
	EvVerdictBye
	// EvHandoff: a stray frame for another shard's cycle space was
	// routed through the cross-shard handoff queue (ReusePort layouts).
	EvHandoff
)

var kindNames = [...]string{
	EvNone:           "none",
	EvProbeSent:      "probe-sent",
	EvReplyMatched:   "reply-matched",
	EvAttemptExpired: "attempt-expired",
	EvVerdictLost:    "verdict-lost",
	EvVerdictBye:     "verdict-bye",
	EvHandoff:        "handoff",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size flight-recorder record. At is time since the
// owning fleet's epoch, not wall clock — epoch-relative times make two
// same-seed memnet runs comparable.
type Event struct {
	At      time.Duration `json:"at_ns"`
	Device  ident.NodeID  `json:"device"`
	CP      ident.NodeID  `json:"cp"`
	Cycle   uint32        `json:"cycle"`
	Attempt uint8         `json:"attempt"`
	Kind    EventKind     `json:"kind"`
}

// Ring is a bounded flight-recorder buffer: the newest Cap events win,
// older ones are overwritten in place. Ring does no synchronization of
// its own — in the fleet each shard owns one Ring and every Record and
// Snapshot runs on that shard's event loop. Record never allocates.
type Ring struct {
	buf   []Event
	total uint64
}

// NewRing returns a ring holding the newest n events (n ≥ 1 forced).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record appends one event, overwriting the oldest once full.
func (r *Ring) Record(e Event) {
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
}

// Total returns how many events were ever recorded.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns how many events were overwritten before being read.
func (r *Ring) Dropped() uint64 {
	if n := uint64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}

// Snapshot copies the retained events oldest-first. It allocates; call
// it from dump paths, not the hot path.
func (r *Ring) Snapshot() []Event {
	n := r.total
	if max := uint64(len(r.buf)); n > max {
		n = max
	}
	out := make([]Event, 0, n)
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%uint64(len(r.buf))])
	}
	return out
}

// WriteFlight renders one shard's events human-readably, one per line:
//
//	s0 +12.003456 probe-sent dev=n5 cp=n12 cycle=1034 attempt=0
//
// This is the /debug/flight and SIGQUIT dump format.
func WriteFlight(w io.Writer, shard int, events []Event) error {
	for _, e := range events {
		var err error
		switch e.Kind {
		case EvHandoff:
			_, err = fmt.Fprintf(w, "s%d +%.6f %s dev=%s cycle=%d\n",
				shard, e.At.Seconds(), e.Kind, e.Device, e.Cycle)
		default:
			_, err = fmt.Fprintf(w, "s%d +%.6f %s dev=%s cp=%s cycle=%d attempt=%d\n",
				shard, e.At.Seconds(), e.Kind, e.Device, e.CP, e.Cycle, e.Attempt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Normalize reduces per-shard flight snapshots to the portion that is
// protocol-deterministic: one line per control point listing its event
// sequence with cycles rebased to the CP's first recorded cycle. Wall
// timestamps are stripped (they vary run to run), handoff events are
// skipped (ReusePort flow hashing is layout-dependent), and lines sort
// by CP id, so two same-seed memnet runs of the same timeline produce
// byte-identical output regardless of scheduling. The conformance
// harness pins exactly that.
func Normalize(shards [][]Event) []string {
	type cpState struct {
		cp, dev ident.NodeID
		base    uint32
		seen    bool
		toks    []string
	}
	byCP := map[ident.NodeID]*cpState{}
	var order []ident.NodeID
	for _, events := range shards {
		for _, e := range events {
			if e.Kind == EvHandoff || !e.CP.Valid() {
				continue
			}
			st := byCP[e.CP]
			if st == nil {
				st = &cpState{cp: e.CP, dev: e.Device}
				byCP[e.CP] = st
				order = append(order, e.CP)
			}
			if !st.seen {
				st.base, st.seen = e.Cycle, true
			}
			st.toks = append(st.toks,
				fmt.Sprintf("%s(c%+d,a%d)", e.Kind, int64(e.Cycle)-int64(st.base), e.Attempt))
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	lines := make([]string, 0, len(order))
	for _, id := range order {
		st := byCP[id]
		line := fmt.Sprintf("%s<-%s:", st.dev, st.cp)
		for _, tok := range st.toks {
			line += " " + tok
		}
		lines = append(lines, line)
	}
	return lines
}
