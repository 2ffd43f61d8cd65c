package fleet

// The shard hot-path harness drives one shard's packet path — batch
// read, decode, demux, engine call, encode, coalesced batch write —
// deterministically on the caller's goroutine, with no event-loop
// goroutine, no wall-clock sleeps and no kernel sockets. It exists to
// measure and pin the per-packet cost of exactly the code the event
// loop runs: BenchmarkShardHotPath reports ns and allocs per op,
// TestShardHotPathZeroAlloc asserts the steady state allocates
// nothing, and the benchmark of record's hot-* workloads (bench/) time
// Step from outside.

import (
	"errors"
	"net/netip"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/ident"
	"presence/internal/wire"
)

// hotPathDeviceID is the loopback device the harness CPs probe.
const hotPathDeviceID ident.NodeID = 1

// HotPathOptions parameterises the harness.
type HotPathOptions struct {
	// CPs is the number of hosted control points. Default 64.
	CPs int
	// Batch is the shard's transport batch (Config.Batch). Default 64.
	Batch int
	// ForceSingleDatagram measures the loop-over-single-datagram
	// fallback instead of the batch path.
	ForceSingleDatagram bool
	// DisableTelemetry turns histograms and the flight recorder off —
	// the baseline the benchmark's fleet.telemetry_ns row measures the
	// default (telemetry-on) path against.
	DisableTelemetry bool
	// Auth enables frame authentication (wire v2) with a fixed harness
	// master key: every probe and reply is CMAC-signed and verified.
	// The hot-auth workload measures its ns/packet cost, and the
	// zero-alloc gate pins that signing and verifying stay off the heap.
	Auth bool
}

// hotPathAuthMaster is the fixed master secret the auth-enabled harness
// derives its schedules from.
var hotPathAuthMaster = []byte("hot-path-bench-master-secret")

// HotPathBench is one assembled harness: a single shard hosting a
// naive device and CPs probing it through an in-memory ring transport.
// Step is the unit of work; Close tears the fleet down.
type HotPathBench struct {
	fleet *Fleet
	s     *shard
	conn  *ringConn
	cps   []*ControlPoint
}

// NewHotPathBench builds the harness and performs the initial probe
// burst (every CP's first cycle starts immediately on Add).
func NewHotPathBench(opts HotPathOptions) (*HotPathBench, error) {
	if opts.CPs <= 0 {
		opts.CPs = 64
	}
	if opts.Batch <= 0 {
		opts.Batch = defaultBatch
	}
	// Ring capacity: one full CP burst of probes or replies, plus the
	// retransmissions a slow benchmark machine might sneak in.
	conn := newRingConn(4 * opts.CPs)
	cfg := Config{
		Shards:              1,
		Batch:               opts.Batch,
		ForceSingleDatagram: opts.ForceSingleDatagram,
		Transport:           TransportFunc(func(int) (PacketConn, error) { return conn, nil }),
	}
	if opts.Auth {
		cfg.AuthKey = hotPathAuthMaster
	}
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if opts.DisableTelemetry {
		f.shards[0].hist, f.shards[0].rec = nil, nil
	}
	// Mark the fleet started without launching the event-loop
	// goroutine: the harness IS the loop, so every engine call below
	// runs deterministically on the caller's goroutine.
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	h := &HotPathBench{fleet: f, s: f.shards[0], conn: conn}
	dev, err := f.AddDevice(hotPathDeviceID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(hotPathDeviceID, env)
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	for i := 0; i < opts.CPs; i++ {
		// A long fixed period keeps the wheel quiet between Steps; the
		// harness fires the inter-cycle alarms itself.
		policy, err := naive.NewPolicy(time.Hour)
		if err != nil {
			f.Close()
			return nil, err
		}
		cp, err := f.AddControlPoint(CPConfig{
			ID:             ident.NodeID(1000 + i),
			Device:         hotPathDeviceID,
			DeviceAddrPort: dev.Addr(),
			Policy:         policy,
			// Generous timeouts: the harness drives cycles explicitly,
			// so wall-clock hiccups must not expire a cycle mid-Step.
			Retransmit: core.RetransmitConfig{
				FirstTimeout: time.Hour,
				RetryTimeout: time.Hour,
			},
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		h.cps = append(h.cps, cp)
	}
	return h, nil
}

// CPs returns the number of hosted control points.
func (h *HotPathBench) CPs() int { return len(h.cps) }

// PacketsPerStep returns how many packet handlings one Step performs:
// per CP, one probe and one reply each traverse the receive path and
// the send path.
func (h *HotPathBench) PacketsPerStep() int { return 4 * len(h.cps) }

// Step runs one full probe cycle for every hosted CP through the
// shard's real dispatch and flush code: the queued probe burst is
// delivered to the device (whose replies coalesce into batched
// writes), the reply burst is delivered to the probers, and every
// prober's inter-cycle alarm fires, emitting the next probe burst. In
// steady state a Step allocates nothing.
func (h *HotPathBench) Step() {
	s := h.s
	h.deliverLocked() // probes → device → reply burst
	h.deliverLocked() // replies → probers (cycle completes, alarm armed)
	// The ticks shard.loop makes: one at the top of the iteration, then
	// one per Batch alarms of the cascade.
	s.tick()
	s.inBatch = true
	for i, cp := range h.cps {
		if s.batchEnds(i) {
			s.tick()
		}
		s.counters.TimersFired++
		cp.n.timer.fire() // prober.OnAlarm → next cycle's probe
	}
	s.inBatch = false
	s.flushSends()
}

// deliverLocked drains the ring through the shard's receive path —
// s.bconn, so a ForceSingleDatagram harness pays the fallback's
// one-packet-per-call cost — exactly as the event loop would after a
// readable burst.
func (h *HotPathBench) deliverLocked() {
	s := h.s
	for h.conn.queued() > 0 {
		for i := range s.recvRing {
			s.recvRing[i].Buf = s.recvBufs[i]
		}
		n, err := s.bconn.ReadBatch(s.recvRing)
		if n == 0 || err != nil {
			return
		}
		s.counters.SyscallsIn++
		s.dispatchBatch(s.recvRing[:n])
	}
}

// Counters returns the shard's counters, for sanity checks.
func (h *HotPathBench) Counters() Counters {
	return h.s.counters
}

// Close tears the harness down.
func (h *HotPathBench) Close() error { return h.fleet.Close() }

// ringConn is a zero-allocation loopback BatchPacketConn: writes queue
// frames in preallocated slots and reads drain them, all attributed to
// the conn's own address. It is single-goroutine by construction (the
// harness is the shard's loop, on the caller's goroutine) and never
// blocks — an empty read reports a timeout, like a socket with a past
// deadline.
type ringConn struct {
	addr   netip.AddrPort
	bufs   [][]byte
	n      int
	closed bool
}

var _ BatchPacketConn = (*ringConn)(nil)

func newRingConn(capacity int) *ringConn {
	c := &ringConn{
		addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 19000),
		bufs: make([][]byte, capacity),
	}
	for i := range c.bufs {
		c.bufs[i] = make([]byte, 0, wire.MaxFrameSize)
	}
	return c
}

func (c *ringConn) queued() int { return c.n }

var errRingFull = errors.New("fleet: hot-path ring full")

func (c *ringConn) WriteBatch(dgs []Datagram) (int, error) {
	for i := range dgs {
		if c.n == len(c.bufs) {
			return i, errRingFull
		}
		c.bufs[c.n] = append(c.bufs[c.n][:0], dgs[i].Buf...)
		c.n++
	}
	return len(dgs), nil
}

func (c *ringConn) ReadBatch(dgs []Datagram) (int, error) {
	if c.n == 0 {
		return 0, ringTimeoutError{}
	}
	n := min(c.n, len(dgs))
	for i := 0; i < n; i++ {
		k := copy(dgs[i].Buf, c.bufs[i])
		dgs[i].Buf = dgs[i].Buf[:k]
		dgs[i].Addr = c.addr
	}
	// Rotate the drained slots to the tail so their capacity is reused.
	rest := c.n - n
	for i := 0; i < rest; i++ {
		c.bufs[i], c.bufs[n+i] = c.bufs[n+i], c.bufs[i]
	}
	c.n = rest
	return n, nil
}

func (c *ringConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	if c.n == 0 {
		return 0, netip.AddrPort{}, ringTimeoutError{}
	}
	k := copy(b, c.bufs[0])
	first := c.bufs[0]
	copy(c.bufs, c.bufs[1:c.n])
	c.bufs[c.n-1] = first
	c.n--
	return k, c.addr, nil
}

func (c *ringConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if c.n == len(c.bufs) {
		return 0, errRingFull
	}
	c.bufs[c.n] = append(c.bufs[c.n][:0], b...)
	c.n++
	return len(b), nil
}

func (c *ringConn) SetReadDeadline(time.Time) error { return nil }
func (c *ringConn) LocalAddrPort() netip.AddrPort   { return c.addr }
func (c *ringConn) Close() error                    { c.closed = true; return nil }

// ringTimeoutError satisfies net.Error with Timeout() true, like a
// read deadline expiring on an empty socket.
type ringTimeoutError struct{}

func (ringTimeoutError) Error() string   { return "fleet: hot-path ring empty" }
func (ringTimeoutError) Timeout() bool   { return true }
func (ringTimeoutError) Temporary() bool { return true }
