package fleet

import (
	"sync"
	"sync/atomic"
)

// inbox is how other goroutines hand a shard's event loop work: a leaf
// mutex around an append, a flag the loop polls, and two slices that
// ping-pong so steady traffic allocates nothing. It is the only
// cross-shard mutable state on the receive path, and a shard has two —
// commands (runOn's closures, admin ones bounded) and handoff frames.
//
// Producers put and then wake the loop by expiring its read deadline;
// the loop checks pending at the top of every iteration and again
// right after arming its deadline, which closes the race between a
// producer's poke and the loop overwriting it with a fresh deadline.
// take and recycle are the loop's alone.
type inbox[T any] struct {
	mu sync.Mutex
	q  []T
	// spare is the drained slice awaiting reuse: the loop's between take
	// and recycle, reinstalled as q by the next take.
	spare []T
	// pending is set exactly when q may be non-empty.
	pending atomic.Bool
}

// put queues v, unless bound is positive and that many items are
// already waiting. Safe from any goroutine.
func (b *inbox[T]) put(v T, bound int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bound > 0 && len(b.q) >= bound {
		return false
	}
	b.q = append(b.q, v)
	b.pending.Store(true)
	return true
}

// take removes and returns everything queued, in arrival order. The
// caller hands the slice back with recycle once it is done with it.
func (b *inbox[T]) take() []T {
	b.mu.Lock()
	q := b.q
	b.q = b.spare[:0]
	b.pending.Store(false)
	b.mu.Unlock()
	return q
}

// recycle returns a slice take handed out, zeroed so it pins nothing
// (a command's closure, say) while it waits for reuse.
func (b *inbox[T]) recycle(q []T) {
	clear(q)
	b.spare = q
}
