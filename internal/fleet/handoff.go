package fleet

import (
	"net/netip"
	"time"

	"presence/internal/ident"
	"presence/internal/trace"
	"presence/internal/wire"
)

// ReusePort routing: with every shard socket bound to one shared port,
// the kernel spreads inbound datagrams by flow hash — a function of the
// peer's address, unknowable to the fleet — while control points are
// placed by NodeID hash. The two hashes agree on nothing, so almost
// every reply lands on a shard that does not host its control point.
// Probing all shards' demux tables per stray would serialize the fleet
// on exactly the cross-shard state this package avoids; instead the
// owning shard's index is embedded in the frame itself: a routed
// control point's cycle numbers carry its shard index in the top
// routeShardBits bits (replies echo the cycle), so any shard can route
// any reply with one shift. The stray is then handed off in-process —
// one copy into the owning shard's handoff inbox, one read-deadline
// poke to wake it — which costs far less than the cross-core socket
// contention it replaces.
const (
	// routeShardBits is how much of the 32-bit cycle space routing
	// claims. The remaining 24 bits stagger and count cycles: at one
	// cycle per second a control point takes half a year to carry into
	// the shard bits, and even then the result is one mis-routed reply
	// handed off once more, not a protocol error.
	routeShardBits  = 8
	routeShardShift = 32 - routeShardBits
	routeCycleMask  = 1<<routeShardShift - 1
)

// MaxRoutedShards is the most shards a ReusePort fleet can have — the
// shard index must fit the cycle bits routing claims.
const MaxRoutedShards = 1 << routeShardBits

// routedCycleSeed embeds a shard index into a control point's cycle
// seed, keeping the low bits' stagger.
func routedCycleSeed(seed uint32, shard int) uint32 {
	return uint32(shard)<<routeShardShift | seed&routeCycleMask
}

// shardMask is a bitset over shard indices (device id → which shards
// host watchers), sized for MaxRoutedShards.
type shardMask [MaxRoutedShards / 64]uint64

func (m *shardMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m *shardMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }
func (m *shardMask) has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m *shardMask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// handoffFrame is one decoded frame in flight between shards. The frame
// is carried decoded (it is a flat value struct) so the owning shard
// pays no second decode and no buffer management. at is the sending
// shard's clock — when its burst was received — the start of the
// handoff-latency measurement, which the owner ends on its own clock.
type handoffFrame struct {
	from netip.AddrPort
	at   time.Duration
	f    wire.Frame
}

// handoffTo queues f on t's handoff inbox and wakes t's loop by
// expiring its read deadline (the same trick the loop's own drain
// rounds use). Runs under s's mutex; takes only t's leaf inbox mutex,
// so shard mutexes never nest.
func (s *shard) handoffTo(t *shard, from netip.AddrPort, f *wire.Frame) {
	s.counters.HandoffsOut++
	t.ho.put(handoffFrame{from: from, at: s.now, f: *f}, 0)
	t.conn.SetReadDeadline(pastDeadline) //nolint:errcheck // fails only when closed
}

// drainHandoffs dispatches every queued handoff frame locally. Runs on
// the shard loop under the shard mutex, inside a send batch.
func (s *shard) drainHandoffs() {
	q := s.ho.take()
	for i := range q {
		if s.batchEnds(i) {
			s.tick()
		}
		s.counters.HandoffsIn++
		if s.hist != nil {
			s.hist.handoff.Observe(us(s.now - q[i].at))
		}
		if s.rec != nil {
			s.rec.Record(trace.Event{At: s.now, Kind: trace.EvHandoff,
				Device: q[i].f.From, Cycle: q[i].f.Cycle})
		}
		s.dispatchFrame(q[i].from, &q[i].f, true)
	}
	s.ho.recycle(q)
}

// fanOutToWatchers hands a bye/announce to every other shard hosting a
// watcher of the frame's device, per the fleet's watcher mask. Reports
// whether any shard took a copy. Runs under the shard mutex.
func (s *shard) fanOutToWatchers(from netip.AddrPort, f *wire.Frame) bool {
	fl := s.fleet
	fl.watchMu.Lock()
	m, ok := fl.watchMask[f.From]
	var mask shardMask
	if ok {
		mask = *m
	}
	fl.watchMu.Unlock()
	if !ok {
		return false
	}
	fanned := false
	for i := range fl.shards {
		if i != s.index && mask.has(i) {
			s.handoffTo(fl.shards[i], from, f)
			fanned = true
		}
	}
	return fanned
}

// noteWatcher records that a shard hosts a watcher of device. The mask
// is maintained for every fleet (unrouted fleets consult it only after
// a migration has moved a CP off its device's home shard); watchMu is a
// leaf below the shard mutexes.
func (f *Fleet) noteWatcher(device ident.NodeID, shard int) {
	f.watchMu.Lock()
	m := f.watchMask[device]
	if m == nil {
		m = new(shardMask)
		f.watchMask[device] = m
	}
	m.set(shard)
	f.watchMu.Unlock()
}

// dropWatcher clears a shard's watcher bit for device once its last
// local watcher is removed.
func (f *Fleet) dropWatcher(device ident.NodeID, shard int) {
	f.watchMu.Lock()
	if m := f.watchMask[device]; m != nil {
		m.clear(shard)
		if m.empty() {
			delete(f.watchMask, device)
		}
	}
	f.watchMu.Unlock()
}
