package fleet

import (
	"net/netip"

	"presence/internal/ident"
)

// peerTable remembers the UDP source address of each peer that has
// contacted a shared socket, so replies and byes can be routed back.
// Capacity is bounded; when full, the least recently seen peer is
// evicted ("implementable on small computing devices" implies bounded
// state). Every hosted device routes its replies, byes and announces
// through one; like the engines themselves it is not safe for
// concurrent use — the device's shard mutex serialises access.
type peerTable struct {
	max int
	seq uint64
	// peers holds one entry per remembered peer, by pointer: a Note on a
	// known peer — every probe after the first — is one lookup and an
	// in-place update.
	peers map[ident.NodeID]*peerEntry
	// onEvict, if set, observes every peer dropped by the LRU bound, so
	// owners keeping per-peer side state (the fleet's key-schedule cache)
	// stay in sync with the table.
	onEvict func(ident.NodeID)
}

// peerEntry is a peer's last known address and when it was last seen,
// on the table's Note counter.
type peerEntry struct {
	addr netip.AddrPort
	seq  uint64
}

// OnEvict installs fn as the eviction observer: it is called with the
// id of every peer the LRU bound drops, under the same serialisation
// as the Note that evicted it. fn must not mutate the table.
func (t *peerTable) OnEvict(fn func(ident.NodeID)) { t.onEvict = fn }

// maxPeersPerDevice bounds each hosted device's reply-routing table.
const maxPeersPerDevice = 65536

// newPeerTable returns a table holding at most max peers (max must be
// positive).
func newPeerTable(max int) *peerTable {
	return &peerTable{max: max, peers: make(map[ident.NodeID]*peerEntry)}
}

// Note records the sender's address, evicting the least recently seen
// peer when the table is full.
func (t *peerTable) Note(id ident.NodeID, addr netip.AddrPort) {
	t.seq++
	if e := t.peers[id]; e != nil {
		e.addr, e.seq = addr, t.seq
		return
	}
	if len(t.peers) >= t.max {
		var oldest ident.NodeID
		oldestSeq := t.seq
		for p, e := range t.peers {
			if e.seq < oldestSeq {
				oldest, oldestSeq = p, e.seq
			}
		}
		delete(t.peers, oldest)
		if t.onEvict != nil {
			t.onEvict(oldest)
		}
	}
	t.peers[id] = &peerEntry{addr: addr, seq: t.seq}
}

// Lookup returns the last known address of a peer.
func (t *peerTable) Lookup(id ident.NodeID) (netip.AddrPort, bool) {
	if e := t.peers[id]; e != nil {
		return e.addr, true
	}
	return netip.AddrPort{}, false
}

// Len returns the number of remembered peers.
func (t *peerTable) Len() int { return len(t.peers) }

// Each calls fn for every remembered peer (iteration order is
// unspecified; fn must not mutate the table).
func (t *peerTable) Each(fn func(id ident.NodeID, addr netip.AddrPort)) {
	for id, e := range t.peers {
		fn(id, e.addr)
	}
}
