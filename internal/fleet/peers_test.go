package fleet

import (
	"net/netip"
	"testing"

	"presence/internal/ident"
)

func addrN(n uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), 9000+n)
}

func TestPeerTableEvictsLeastRecentlySeen(t *testing.T) {
	pt := newPeerTable(3)
	pt.Note(1, addrN(1))
	pt.Note(2, addrN(2))
	pt.Note(3, addrN(3))
	pt.Note(1, addrN(11)) // refresh 1: now 2 is the least recently seen
	pt.Note(4, addrN(4))  // evicts 2
	if _, ok := pt.Lookup(2); ok {
		t.Fatal("least recently seen peer not evicted")
	}
	if got, ok := pt.Lookup(1); !ok || got != addrN(11) {
		t.Fatalf("refreshed peer = %v ok=%v, want updated address", got, ok)
	}
	if pt.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (bounded)", pt.Len())
	}
	seen := map[ident.NodeID]bool{}
	pt.Each(func(id ident.NodeID, _ netip.AddrPort) { seen[id] = true })
	if !seen[1] || !seen[3] || !seen[4] || len(seen) != 3 {
		t.Fatalf("Each visited %v", seen)
	}
}

func TestPeerTableEvictionCallback(t *testing.T) {
	pt := newPeerTable(2)
	var evicted []ident.NodeID
	pt.OnEvict(func(id ident.NodeID) { evicted = append(evicted, id) })
	pt.Note(1, addrN(1))
	pt.Note(2, addrN(2))
	pt.Note(2, addrN(22)) // refresh: no eviction
	if len(evicted) != 0 {
		t.Fatalf("refresh evicted %v", evicted)
	}
	pt.Note(3, addrN(3)) // evicts 1 (least recently seen)
	pt.Note(4, addrN(4)) // evicts 2
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted %v, want [1 2]", evicted)
	}
}

func TestPeerTableRefreshDoesNotEvict(t *testing.T) {
	pt := newPeerTable(2)
	pt.Note(1, addrN(1))
	pt.Note(2, addrN(2))
	pt.Note(2, addrN(22)) // refresh at capacity must not evict 1
	if _, ok := pt.Lookup(1); !ok {
		t.Fatal("refresh of a known peer evicted another entry")
	}
}

// TestPeerTableLRUOrder: evictions follow last-seen order exactly, with
// refreshes reordering it, and each eviction reaches OnEvict once.
func TestPeerTableLRUOrder(t *testing.T) {
	pt := newPeerTable(4)
	evictions := map[ident.NodeID]int{}
	var order []ident.NodeID
	pt.OnEvict(func(id ident.NodeID) {
		evictions[id]++
		order = append(order, id)
	})
	for id := ident.NodeID(1); id <= 4; id++ {
		pt.Note(id, addrN(uint16(id)))
	}
	pt.Note(2, addrN(2)) // last seen: 1 3 4 2
	pt.Note(1, addrN(1)) // last seen: 3 4 2 1
	for id := ident.NodeID(5); id <= 8; id++ {
		pt.Note(id, addrN(uint16(id)))
	}
	want := []ident.NodeID{3, 4, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("evicted %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("evicted %v, want %v", order, want)
		}
	}
	for id, n := range evictions {
		if n != 1 {
			t.Errorf("peer %d evicted %d times, want once", id, n)
		}
	}
	for id := ident.NodeID(1); id <= 4; id++ {
		if _, ok := pt.Lookup(id); ok {
			t.Errorf("evicted peer %d still resolves", id)
		}
	}
	if pt.Len() != 4 {
		t.Errorf("Len = %d, want 4", pt.Len())
	}
}

// TestPeerTableKnownPeerNoteZeroAlloc: every probe after a peer's first
// refreshes its entry in place.
func TestPeerTableKnownPeerNoteZeroAlloc(t *testing.T) {
	pt := newPeerTable(8)
	pt.Note(1, addrN(1))
	a, b := addrN(2), addrN(3)
	if allocs := testing.AllocsPerRun(100, func() {
		pt.Note(1, a)
		pt.Note(1, b)
	}); allocs != 0 {
		t.Fatalf("Note on a known peer allocates %.1f times, want 0", allocs)
	}
	if got, _ := pt.Lookup(1); got != b {
		t.Fatalf("Lookup = %v, want the last noted address %v", got, b)
	}
}
