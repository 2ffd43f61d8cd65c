package fleet

import (
	"runtime"
	"testing"
)

func TestInboxFIFOAndPending(t *testing.T) {
	var b inbox[int]
	if b.pending.Load() {
		t.Fatal("zero inbox is pending")
	}
	for i := 0; i < 100; i++ {
		if !b.put(i, 0) {
			t.Fatalf("unbounded put %d refused", i)
		}
	}
	if !b.pending.Load() {
		t.Fatal("put did not set pending")
	}
	q := b.take()
	if b.pending.Load() {
		t.Fatal("take did not clear pending")
	}
	if len(q) != 100 {
		t.Fatalf("took %d items, want 100", len(q))
	}
	for i, v := range q {
		if v != i {
			t.Fatalf("item %d = %d: not arrival order", i, v)
		}
	}
	// A put between take and recycle lands in the other slice.
	b.put(100, 0)
	b.recycle(q)
	if q = b.take(); len(q) != 1 || q[0] != 100 {
		t.Fatalf("after recycle took %v, want [100]", q)
	}
	if q = b.take(); len(q) != 0 {
		t.Fatalf("empty inbox yielded %v", q)
	}
}

func TestInboxBound(t *testing.T) {
	const bound = 3
	var b inbox[int]
	for i := 0; i < bound; i++ {
		if !b.put(i, bound) {
			t.Fatalf("put %d refused below the bound %d", i, bound)
		}
	}
	if b.put(99, bound) {
		t.Fatalf("put accepted with %d already waiting", bound)
	}
	// The bound is on what is waiting, not on what ever passed through.
	b.recycle(b.take())
	if !b.put(4, bound) {
		t.Fatal("put refused on a drained inbox")
	}
}

func TestInboxRecyclePinsNothing(t *testing.T) {
	var b inbox[shardCommand]
	collected := make(chan struct{})
	func() {
		big := new([1 << 16]byte)
		runtime.SetFinalizer(big, func(*[1 << 16]byte) { close(collected) })
		b.put(shardCommand{fn: func(*shard) error { _ = big[0]; return nil }}, 0)
	}()
	q := b.take()
	if q[0].fn == nil {
		t.Fatal("command lost its closure before it ran")
	}
	b.recycle(q)
	if q[:1][0].fn != nil {
		t.Fatal("recycled slice still holds the closure")
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("what the closure captured was not collected: the spare slice pins it")
}

func TestInboxSteadyStateZeroAlloc(t *testing.T) {
	var b inbox[handoffFrame]
	cycle := func() {
		for i := 0; i < 32; i++ {
			b.put(handoffFrame{}, 0)
		}
		b.recycle(b.take())
	}
	cycle() // grow both slices once
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady put/take/recycle allocates %.1f times a cycle, want 0", allocs)
	}
}
