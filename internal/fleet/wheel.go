package fleet

import "time"

// The fleet replaces per-node time.Timers with one hierarchical hashed
// timer wheel per shard (Varghese & Lauck's scheme, the same structure
// the Linux kernel and large userspace event loops use). Arming,
// re-arming and cancelling an alarm are O(1) pointer splices; advancing
// the wheel costs O(1) amortised per tick plus O(1) per expired timer.
// With tens of thousands of control points per shard — each owning
// exactly one alarm by the engine contract — this is the difference
// between a heap of timer goroutines and a flat array walk.
//
// Geometry: 4 levels of 256 slots at a 1 ms base tick cover ~49.7 days
// before the top level wraps; protocol timers (probe timeouts of tens
// of milliseconds, inter-cycle waits of 0.1 s .. minutes) live in the
// bottom two levels. Timers far in the future cascade down a level each
// time the cursor reaches their slot, ending at level 0, whose slots
// are one tick wide — so firing is accurate to the tick.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4

	defaultWheelTick = time.Millisecond
)

// wheelTimer is one schedulable alarm slot, embedded in its owner so
// arming allocates nothing. The generation counter makes stale firings
// inert: Schedule and Cancel bump it, and a collected-but-superseded
// entry no longer matches.
type wheelTimer struct {
	next, prev *wheelTimer
	deadline   int64 // absolute tick
	gen        uint64
	fire       func()
}

func (t *wheelTimer) linked() bool { return t.prev != nil }

// dueEntry is a timer unlinked by Advance, pinned to the generation it
// had when it came due.
type dueEntry struct {
	t   *wheelTimer
	gen uint64
}

// timerWheel is a hierarchical hashed timing wheel. It is not safe for
// concurrent use; the owning shard serialises access under its mutex.
type timerWheel struct {
	tick    time.Duration
	nowTick int64
	count   int
	fired   uint64
	slots   [wheelLevels][wheelSlots]wheelTimer // circular-list sentinels
	due     []dueEntry
}

func newTimerWheel(tick time.Duration) *timerWheel {
	w := &timerWheel{tick: tick}
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			s.next, s.prev = s, s
		}
	}
	return w
}

// Len returns the number of pending timers (the wheel depth).
func (w *timerWheel) Len() int { return w.count }

// Fired returns the cumulative number of timers handed to callers.
func (w *timerWheel) Fired() uint64 { return w.fired }

// Schedule (re)arms t to fire at offset `at` from the wheel epoch,
// replacing any pending deadline — Env.SetAlarm semantics. The deadline
// is rounded UP to the tick grid: a timer may fire late by less than
// one tick but never early. Offsets in the past fire on the next tick.
func (w *timerWheel) Schedule(t *wheelTimer, at time.Duration) {
	if t.linked() {
		w.unlink(t)
		w.count--
	}
	t.gen++
	dl := int64((at + w.tick - 1) / w.tick)
	if dl <= w.nowTick {
		dl = w.nowTick + 1
	}
	t.deadline = dl
	w.insert(t)
	w.count++
}

// Cancel disarms t; it is a no-op for an unarmed timer, and it also
// invalidates a timer already collected by Advance but not yet fired.
func (w *timerWheel) Cancel(t *wheelTimer) {
	t.gen++
	if t.linked() {
		w.unlink(t)
		w.count--
	}
}

// insert places t into the level whose slot width matches its distance.
func (w *timerWheel) insert(t *wheelTimer) {
	delta := t.deadline - w.nowTick
	var level uint
	switch {
	case delta < wheelSlots:
		level = 0
	case delta < wheelSlots*wheelSlots:
		level = 1
	case delta < wheelSlots*wheelSlots*wheelSlots:
		level = 2
	default:
		level = 3
	}
	s := &w.slots[level][(t.deadline>>(wheelBits*level))&wheelMask]
	t.prev = s.prev
	t.next = s
	s.prev.next = t
	s.prev = t
}

func (w *timerWheel) unlink(t *wheelTimer) {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.next, t.prev = nil, nil
}

// Advance moves the wheel to offset now, collecting every timer that
// came due. The returned slice (reused across calls) pins each timer's
// generation; the caller fires entries whose generation still matches,
// which keeps firing safe against Cancel/Schedule performed by earlier
// callbacks in the same batch.
func (w *timerWheel) Advance(now time.Duration) []dueEntry {
	w.due = w.due[:0]
	target := int64(now / w.tick)
	for w.nowTick < target {
		w.nowTick++
		if w.nowTick&wheelMask == 0 {
			w.cascade(1)
			if (w.nowTick>>wheelBits)&wheelMask == 0 {
				w.cascade(2)
				if (w.nowTick>>(2*wheelBits))&wheelMask == 0 {
					w.cascade(3)
				}
			}
		}
		w.expire(&w.slots[0][w.nowTick&wheelMask])
	}
	return w.due
}

// cascade re-sorts the current slot of the given level into lower
// levels as the cursor enters it.
func (w *timerWheel) cascade(level uint) {
	s := &w.slots[level][(w.nowTick>>(wheelBits*level))&wheelMask]
	t := s.next
	s.next, s.prev = s, s
	for t != s {
		next := t.next
		t.next, t.prev = nil, nil
		w.insert(t)
		t = next
	}
}

// expire collects a due level-0 slot.
func (w *timerWheel) expire(s *wheelTimer) {
	t := s.next
	if t == s {
		return
	}
	s.next, s.prev = s, s
	for t != s {
		next := t.next
		t.next, t.prev = nil, nil
		w.count--
		w.fired++
		w.due = append(w.due, dueEntry{t: t, gen: t.gen})
		t = next
	}
}

// NextDeadline returns a lower bound on the offset of the earliest
// pending timer: the exact deadline when it sits in level 0, otherwise
// the next cascade boundary (advancing to the bound and asking again
// converges). The second return is false when no timer is pending.
func (w *timerWheel) NextDeadline() (time.Duration, bool) {
	if w.count == 0 {
		return 0, false
	}
	for i := int64(1); i < wheelSlots; i++ {
		tk := w.nowTick + i
		if s := &w.slots[0][tk&wheelMask]; s.next != s {
			return time.Duration(tk) * w.tick, true
		}
	}
	boundary := (w.nowTick | wheelMask) + 1
	return time.Duration(boundary) * w.tick, true
}
