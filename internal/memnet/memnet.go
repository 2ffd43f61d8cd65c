// Package memnet is a deterministic in-memory packet network with
// injectable faults, shaped like UDP: datagrams between endpoints may
// be delayed, dropped (Bernoulli or Gilbert–Elliott burst loss),
// duplicated or reordered, and whole endpoints can be partitioned away
// ("down") to emulate silent crashes.
//
// Its endpoints satisfy internal/fleet's PacketConn contract — and its
// batched extension, fleet.BatchPacketConn — so the production shard
// event loops run over it unchanged, batch code path included. That is
// the point: the conformance harness (internal/conformance) drives the
// real fleet runtime over a hostile fake network built from the same
// simnet loss/delay models a scenario Spec compiles to, and compares
// the outcome against the discrete-event simulator.
//
// # Determinism
//
// All fault draws come from per-link sub-streams forked off one seed:
// the link a→b draws loss, delay, duplication and reordering from
// rng.Fork("link/<a>/<b>"), and endpoint addresses are assigned in
// Listen order from a fixed synthetic range. Every send draws under
// the one network mutex, so for a fixed seed the n-th datagram on a
// link always sees the same fate, independent of goroutine scheduling
// across links. Delivery *order* across links still depends on
// wall-clock timing — memnet makes the fault pattern reproducible, not
// the interleaving; the conformance harness therefore asserts
// invariants and tolerance-banded metrics, not exact traces.
//
// # Concurrency
//
// There is one send path and one delivery path, both under one network
// mutex: every send, middlebox call, fault draw, delivery, counter
// update and observer callback runs while holding it, so Observer and
// Middlebox callbacks are globally ordered and synchronous, and
// installing either changes nothing else about the traffic. A batched
// write takes the mutex once for the whole burst.
//
// Packets in flight ride real time.AfterFunc timers: a delay model's
// draw is honoured on the wall clock, which both realises reordering
// (a slow packet is overtaken by a fast successor) and keeps the
// engines' real-time timeouts meaningful.
package memnet

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"presence/internal/fleet"
	"presence/internal/rng"
	"presence/internal/simnet"
)

// Faults configures the injected network faults. The zero value is a
// perfect network: instant, lossless, exactly-once.
type Faults struct {
	// Seed derives every fault stream (per-link forks).
	Seed uint64
	// Delay draws the one-way transit time per datagram (shared across
	// links; implementations must be stateless, which all simnet delay
	// models are). Nil means instant delivery.
	Delay simnet.DelayModel
	// NewLoss builds one loss model instance per link. A factory rather
	// than an instance because Gilbert–Elliott channels carry state and
	// must not be shared across links (or goroutines). Nil means no
	// loss.
	NewLoss func() simnet.LossModel
	// DuplicateP duplicates each delivered datagram with this
	// probability; the copy draws its own delay.
	DuplicateP float64
	// ReorderP holds a datagram back with this probability by adding
	// ReorderDelay on top of its drawn delay, letting later traffic on
	// the link overtake it.
	ReorderP float64
	// ReorderDelay is the extra hold applied to reordered datagrams.
	// Zero means 2 ms (several paper-mode transit times).
	ReorderDelay time.Duration
}

// Verdict classifies what happened to one datagram.
type Verdict uint8

// Verdicts, in the order a datagram meets them.
const (
	// Lost: the link's loss model dropped it.
	Lost Verdict = iota + 1
	// DroppedDown: the source or destination endpoint was down or gone.
	DroppedDown
	// Overflowed: the destination inbox was full at delivery time.
	Overflowed
	// Delivered: handed to the destination endpoint.
	Delivered
	// Filtered: an installed middlebox dropped it before the link fault
	// plan ran.
	Filtered
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Lost:
		return "lost"
	case DroppedDown:
		return "dropped-down"
	case Overflowed:
		return "overflowed"
	case Delivered:
		return "delivered"
	case Filtered:
		return "filtered"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// PacketEvent is one datagram outcome reported to the observer.
// Delivered and Overflowed events fire at delivery time, Lost and
// DroppedDown at send time (or at delivery, if the endpoint went down
// while the datagram was in flight). Duplicate reports whether the
// datagram was a duplicated copy.
type PacketEvent struct {
	// At is the offset from the network's construction.
	At time.Duration
	// From and To are the endpoint addresses.
	From, To netip.AddrPort
	// Frame is the datagram payload. The slice is only valid for the
	// duration of the observer call; copy it to keep it.
	Frame []byte
	// Verdict is the datagram's fate.
	Verdict Verdict
	// Duplicate marks an injected duplicate copy.
	Duplicate bool
	// Injected marks a datagram originated by a middlebox rather than
	// accepted from an endpoint — attack traffic, from the harness's
	// point of view.
	Injected bool
	// SendSeq is the network's send count (Counters.Sent) when the
	// datagram was sent: the k-th datagram accepted from an endpoint
	// carries k, its duplicate copies carry k too, and an injected one
	// carries the count at injection. A delayed datagram is reported at
	// delivery, after later sends; SendSeq still says when it was sent,
	// so comparing it with Counters.Sent read at some instant tells
	// whether it was sent before or after that instant.
	SendSeq uint64
}

// Observer receives packet events. It is called synchronously from
// send and delivery paths (possibly from several goroutines) and must
// be cheap. It runs under the network mutex, one call at a time.
type Observer func(ev PacketEvent)

// Counters aggregates datagram accounting.
type Counters struct {
	Sent       uint64 // accepted from an endpoint
	Delivered  uint64
	Lost       uint64
	Duplicated uint64 // extra copies injected by the fault plan
	Dropped    uint64 // down/unregistered endpoints
	Overflowed uint64 // full inboxes
	Injected   uint64 // datagrams originated by middleboxes
	Filtered   uint64 // datagrams dropped by middleboxes
}

// Network is an in-memory datagram network. All methods are safe for
// concurrent use.
type Network struct {
	faults Faults
	root   *rng.Rand
	epoch  time.Time

	// downCount mirrors len(down); the endpoint read path checks it
	// atomically so a read pays no lock while nothing is partitioned.
	downCount atomic.Int32

	mu       sync.Mutex
	eps      map[netip.AddrPort]*Endpoint
	groups   map[netip.AddrPort][]*Endpoint
	down     map[netip.AddrPort]bool
	links    map[linkKey]*link
	middle   []Middlebox
	nextPort uint16
	observer Observer
	// seen is deliverLocked's copy of the frame it shows the observer.
	seen   []byte
	closed bool
	cnt    Counters
}

type linkKey struct {
	from, to netip.AddrPort
}

// link carries the per-link fault state: its own RNG stream and its
// own (possibly stateful) loss model.
type link struct {
	r    *rng.Rand
	loss simnet.LossModel
}

// memnetAddr is the synthetic address space endpoints are allocated
// from. The range is private (TEST-NET-2) so a stray real socket can
// never collide with it.
var memnetAddr = netip.AddrFrom4([4]byte{198, 51, 100, 1})

// New builds a network with the given fault plan.
func New(f Faults) *Network {
	if f.ReorderDelay == 0 {
		f.ReorderDelay = 2 * time.Millisecond
	}
	n := &Network{
		faults:   f,
		root:     rng.New(f.Seed),
		epoch:    time.Now(),
		eps:      make(map[netip.AddrPort]*Endpoint),
		groups:   make(map[netip.AddrPort][]*Endpoint),
		down:     make(map[netip.AddrPort]bool),
		links:    make(map[linkKey]*link),
		nextPort: 9000,
	}
	return n
}

// Observe installs the packet observer (nil removes it). Install it
// before traffic starts; events already in flight may slip past an
// observer installed late. The observer only watches: traffic is the
// same with or without one.
func (n *Network) Observe(obs Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observer = obs
}

// Counters returns a snapshot of the datagram accounting.
func (n *Network) Counters() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cnt
}

// Since returns the offset from the network's construction — the
// timebase of PacketEvent.At.
func (n *Network) Since() time.Duration { return time.Since(n.epoch) }

// Listen allocates a new endpoint with the next synthetic address.
// Addresses are assigned deterministically in call order.
func (n *Network) Listen() (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("memnet: network closed")
	}
	if n.nextPort == 0 {
		return nil, errors.New("memnet: address space exhausted")
	}
	addr := netip.AddrPortFrom(memnetAddr, n.nextPort)
	n.nextPort++
	e := &Endpoint{
		n:      n,
		addr:   addr,
		inbox:  make(chan datagram, inboxCap),
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	n.eps[addr] = e
	return e, nil
}

// ListenGroup allocates size endpoints sharing ONE address — memnet's
// deterministic stand-in for an SO_REUSEPORT socket group. A datagram
// to the shared address is delivered to the member selected by a fixed
// hash of the *source* address, mirroring how the kernel's flow hash
// pins each peer to one member socket: every reply from a given device
// lands on the same member, whichever member's control point probed it.
// Sends from any member carry the shared source address. Closing a
// member removes it from the group (later deliveries re-spread over the
// survivors, like kernel reuseport rebalancing); closing the last one
// releases the address.
func (n *Network) ListenGroup(size int) ([]*Endpoint, error) {
	if size < 1 {
		return nil, fmt.Errorf("memnet: group size %d must be positive", size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("memnet: network closed")
	}
	if n.nextPort == 0 {
		return nil, errors.New("memnet: address space exhausted")
	}
	addr := netip.AddrPortFrom(memnetAddr, n.nextPort)
	n.nextPort++
	members := make([]*Endpoint, size)
	for i := range members {
		members[i] = &Endpoint{
			n:       n,
			addr:    addr,
			grouped: true,
			inbox:   make(chan datagram, inboxCap),
			wake:    make(chan struct{}, 1),
			closed:  make(chan struct{}),
		}
	}
	n.groups[addr] = append([]*Endpoint(nil), members...)
	return members, nil
}

// groupHash spreads source addresses over group members. Deterministic
// across runs (memnet addresses are assigned in Listen order), like
// every other routing decision here; splitmix64's finalizer over the
// port is plenty — all memnet addresses share one synthetic IP.
func groupHash(from netip.AddrPort) uint64 {
	x := uint64(from.Port()) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetDown partitions an endpoint address away (true) or heals it
// (false): while down, every datagram to or from the address is
// dropped, including datagrams already in flight and datagrams already
// queued in an inbox but not yet read — a silent crash, as opposed to
// Endpoint.Close, which also wakes blocked readers.
func (n *Network) SetDown(addr netip.AddrPort, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		if !n.down[addr] {
			n.down[addr] = true
			n.downCount.Add(1)
		}
	} else if n.down[addr] {
		delete(n.down, addr)
		n.downCount.Add(-1)
	}
}

// AddMiddlebox installs a middlebox at the tail of the chain. Installed
// mid-run it sees traffic from the next send onward; frames already in
// flight pass it by. Middleboxes cannot be removed — tear the network
// down instead.
func (n *Network) AddMiddlebox(m Middlebox) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.middle = append(n.middle, m)
}

// ForkRNG returns a deterministic sub-stream of the network's seed for
// auxiliary actors (middlebox adversaries), independent of every
// per-link fault stream: links fork under "link/", so any other label
// prefix is safe.
func (n *Network) ForkRNG(label string) *rng.Rand { return n.root.Fork(label) }

// Close tears the network down; subsequent sends are dropped silently.
// Endpoints are not closed (their owners close them).
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

// framePool recycles datagram payload copies: a frame buffer is
// acquired at send, carried through the inbox (or an in-flight timer)
// and released once the receiver has copied it out or the datagram
// died. Without it every datagram costs an allocation, which at
// hundreds of thousands of packets per second turns the fake network
// into a GC benchmark. The pool holds *[]byte so neither Get nor Put
// boxes a slice header.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, frameCap)
	return &b
}}

// frameCap comfortably exceeds every protocol frame; an oversized
// payload grows its pooled buffer once and the buffer stays grown.
const frameCap = 2048

func acquireFrame(b []byte) *[]byte {
	p := framePool.Get().(*[]byte)
	if cap(*p) < len(b) {
		*p = make([]byte, 0, len(b))
	}
	*p = append((*p)[:0], b...)
	return p
}

func releaseFrame(p *[]byte) { framePool.Put(p) }

// linkFor returns (creating on first use) the fault state of a→b.
// Caller holds n.mu.
func (n *Network) linkFor(from, to netip.AddrPort) *link {
	key := linkKey{from, to}
	l, ok := n.links[key]
	if !ok {
		l = &link{r: n.root.Fork(fmt.Sprintf("link/%s/%s", from, to))}
		if n.faults.NewLoss != nil {
			l.loss = n.faults.NewLoss()
		}
		n.links[key] = l
	}
	return l
}

// faultPlan is one datagram's drawn fate — the draws happen together,
// the resulting deliveries afterwards.
type faultPlan struct {
	lost     bool
	dup      bool
	delay    time.Duration
	dupDelay time.Duration
}

// drawPlan draws one datagram's fault plan from its link's stream, in
// the fixed draw order (loss, delay+reorder, duplicate, duplicate's
// delay+reorder) that the determinism contract pins. Caller holds n.mu.
func (n *Network) drawPlan(l *link) faultPlan {
	var p faultPlan
	if l.loss != nil && l.loss.Lose(l.r) {
		p.lost = true
		return p
	}
	p.delay = n.drawDelay(l)
	if n.faults.DuplicateP > 0 && l.r.Bool(n.faults.DuplicateP) {
		p.dup = true
		p.dupDelay = n.drawDelay(l)
	}
	return p
}

// emit counts one datagram outcome and reports it to the observer.
// Caller holds n.mu.
func (n *Network) emit(from, to netip.AddrPort, frame []byte, v Verdict, dup, injected bool, seq uint64) {
	switch v {
	case Delivered:
		n.cnt.Delivered++
	case Lost:
		n.cnt.Lost++
	case DroppedDown:
		n.cnt.Dropped++
	case Overflowed:
		n.cnt.Overflowed++
	case Filtered:
		n.cnt.Filtered++
	}
	if n.observer != nil {
		n.observer(PacketEvent{
			At: time.Since(n.epoch), From: from, To: to,
			Frame: frame, Verdict: v, Duplicate: dup, Injected: injected,
			SendSeq: seq,
		})
	}
}

// send applies the middlebox chain and the link's fault plan to one
// datagram and schedules the surviving copies.
func (n *Network) send(from, to netip.AddrPort, b []byte) {
	n.mu.Lock()
	n.sendLocked(from, to, b)
	n.mu.Unlock()
}

// deliverAsync completes a delayed delivery.
func (n *Network) deliverAsync(d datagram) {
	n.mu.Lock()
	n.deliverLocked(d)
	n.mu.Unlock()
}

// destFor resolves a datagram's destination endpoint: a reuseport-style
// group member picked by source hash when the address names a group,
// the plain endpoint otherwise. Caller holds n.mu.
func (n *Network) destFor(d datagram) (*Endpoint, bool) {
	if len(n.groups) > 0 {
		if g, ok := n.groups[d.to]; ok && len(g) > 0 {
			return g[groupHash(d.from)%uint64(len(g))], true
		}
	}
	e, ok := n.eps[d.to]
	return e, ok
}

// sendLocked sends one datagram under the held network mutex — a
// batched write pays one lock acquisition for the whole burst. The
// middlebox chain runs first — at the sender's first hop, before the
// down check, so an on-path adversary observes even traffic addressed
// to a crashed endpoint — then the link fault plan. Instant deliveries
// complete inline; delayed copies ride time.AfterFunc.
func (n *Network) sendLocked(from, to netip.AddrPort, b []byte) {
	if n.closed {
		return
	}
	n.cnt.Sent++
	seq := n.cnt.Sent
	for _, mb := range n.middle {
		if mb.Process(time.Since(n.epoch), from, to, b, Injector{n}) == Drop {
			n.emit(from, to, b, Filtered, false, false, seq)
			return
		}
	}
	n.forwardLocked(from, to, b, false, seq)
}

// forwardLocked applies the down check and the link fault plan to one
// datagram — the tail of sendLocked, shared with middlebox injection.
// seq is the datagram's PacketEvent.SendSeq. Caller holds n.mu.
func (n *Network) forwardLocked(from, to netip.AddrPort, b []byte, injected bool, seq uint64) {
	// An injected frame's source address is claimed, not real — an
	// attacker can stamp a crashed host's address on a datagram it
	// originates itself — so the down check binds only its destination.
	if (!injected && n.down[from]) || n.down[to] {
		n.emit(from, to, b, DroppedDown, false, injected, seq)
		return
	}
	p := n.drawPlan(n.linkFor(from, to))
	if p.lost {
		n.emit(from, to, b, Lost, false, injected, seq)
		return
	}
	n.transmitLocked(datagram{from: from, to: to, frame: acquireFrame(b), injected: injected, seq: seq}, p.delay)
	if p.dup {
		n.cnt.Duplicated++
		n.transmitLocked(datagram{from: from, to: to, frame: acquireFrame(b), duplicate: true, injected: injected, seq: seq}, p.dupDelay)
	}
}

// drawDelay draws one transit time, including a possible reorder hold.
// Caller holds n.mu.
func (n *Network) drawDelay(l *link) time.Duration {
	var d time.Duration
	if n.faults.Delay != nil {
		d = n.faults.Delay.Delay(l.r)
		if d < 0 {
			d = 0
		}
	}
	if n.faults.ReorderP > 0 && l.r.Bool(n.faults.ReorderP) {
		d += n.faults.ReorderDelay
	}
	return d
}

// transmitLocked puts one copy in flight, delivering inline when there
// is no delay to wait out. Caller holds n.mu; a delayed copy takes it
// again when its timer fires.
func (n *Network) transmitLocked(d datagram, delay time.Duration) {
	if delay <= 0 {
		n.deliverLocked(d)
		return
	}
	time.AfterFunc(delay, func() { n.deliverAsync(d) })
}

// deliverLocked completes one delivery attempt; the frame buffer is
// recycled unless it made it into an inbox (the reader releases it).
// Caller holds n.mu.
func (n *Network) deliverLocked(d datagram) {
	if n.closed {
		releaseFrame(d.frame)
		return
	}
	if (!d.injected && n.down[d.from]) || n.down[d.to] {
		n.emit(d.from, d.to, *d.frame, DroppedDown, d.duplicate, d.injected, d.seq)
		releaseFrame(d.frame)
		return
	}
	e, ok := n.destFor(d)
	if !ok {
		n.emit(d.from, d.to, *d.frame, DroppedDown, d.duplicate, d.injected, d.seq)
		releaseFrame(d.frame)
		return
	}
	// Once the datagram is in the inbox its buffer is the reader's, who
	// may release it for reuse while the observer still reads it: the
	// observer gets a copy taken while the buffer is still ours.
	seen := *d.frame
	if n.observer != nil {
		n.seen = append(n.seen[:0], seen...)
		seen = n.seen
	}
	select {
	case e.inbox <- d:
		n.emit(d.from, d.to, seen, Delivered, d.duplicate, d.injected, d.seq)
	default:
		n.emit(d.from, d.to, seen, Overflowed, d.duplicate, d.injected, d.seq)
		releaseFrame(d.frame)
	}
}

// datagram is one in-flight packet copy. frame points at a pooled
// buffer owned by the datagram until the receiver copies it out.
type datagram struct {
	from, to  netip.AddrPort
	frame     *[]byte
	duplicate bool
	injected  bool
	seq       uint64 // PacketEvent.SendSeq
}

// inboxCap bounds each endpoint's receive queue, standing in for the
// kernel socket buffer.
const inboxCap = 4096

// Endpoint is one attachment point: memnet's stand-in for a bound UDP
// socket. It satisfies internal/fleet's PacketConn contract. Reads are
// intended for a single goroutine (the shard event loop); writes may
// come from any goroutine.
type Endpoint struct {
	n    *Network
	addr netip.AddrPort
	// grouped marks a ListenGroup member: several endpoints share addr
	// and Close detaches from the group, not the eps map.
	grouped bool

	inbox chan datagram

	mu       sync.Mutex
	deadline time.Time
	// wake tells a parked read that the deadline moved. Capacity 1: a
	// token means "re-read the deadline", and one is enough however many
	// SetReadDeadline calls raced to leave it.
	wake   chan struct{}
	closed chan struct{}
	once   sync.Once
}

var _ fleet.BatchPacketConn = (*Endpoint)(nil)

// LocalAddrPort returns the endpoint's address.
func (e *Endpoint) LocalAddrPort() netip.AddrPort { return e.addr }

// SetReadDeadline bounds the next ReadFromUDPAddrPort and, like a
// kernel socket, re-bounds one already parked: a past deadline makes it
// return a timeout now, a later one extends the park. The zero time
// means no deadline.
func (e *Endpoint) SetReadDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default: // a token is already waiting
	}
	return nil
}

// errClosed reports reads/writes on a closed endpoint.
var errClosed = errors.New("memnet: endpoint closed")

// timeoutError satisfies net.Error with Timeout() true, which is what
// the fleet shard loop checks to distinguish a read deadline from a
// dead socket.
type timeoutError struct{}

func (timeoutError) Error() string   { return "memnet: read deadline exceeded" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ReadFromUDPAddrPort blocks for the next datagram, the deadline or
// Close, whichever comes first. A SetReadDeadline while it is parked
// takes effect at once.
func (e *Endpoint) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		n, from, err := e.readUntilDeadline(b)
		if err != errDeadlineMoved {
			return n, from, err
		}
	}
}

// errDeadlineMoved is readUntilDeadline's private "start over" signal.
var errDeadlineMoved = errors.New("memnet: read deadline moved")

// readUntilDeadline is one park of ReadFromUDPAddrPort under the
// deadline in force when it starts; errDeadlineMoved reports that
// SetReadDeadline ran meanwhile and the read must start over under the
// new one.
func (e *Endpoint) readUntilDeadline(b []byte) (int, netip.AddrPort, error) {
	// A datagram already queued beats any deadline, even an expired one,
	// mirroring a kernel socket with data ready.
	if n, from, ok := e.poll(b); ok {
		return n, from, nil
	}
	// Tokens left before this point announce deadlines the read below
	// sees anyway.
	select {
	case <-e.wake:
	default:
	}
	e.mu.Lock()
	deadline := e.deadline
	e.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			return 0, netip.AddrPort{}, timeoutError{}
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		select {
		case d := <-e.inbox:
			if e.dropQueued(d) {
				continue
			}
			return d.read(b)
		case <-e.closed:
			return 0, netip.AddrPort{}, errClosed
		case <-timeout:
			return 0, netip.AddrPort{}, timeoutError{}
		case <-e.wake:
			return 0, netip.AddrPort{}, errDeadlineMoved
		}
	}
}

// poll copies out the next queued datagram, if any, without blocking.
func (e *Endpoint) poll(b []byte) (int, netip.AddrPort, bool) {
	for {
		select {
		case d := <-e.inbox:
			if e.dropQueued(d) {
				continue
			}
			n, from, _ := d.read(b)
			return n, from, true
		default:
			return 0, netip.AddrPort{}, false
		}
	}
}

// dropQueued reports whether a queued datagram must be discarded at
// read time: SetDown partitions an address away *including* datagrams
// that already made it into an inbox before the partition — without
// this check a delivery scheduled (or enqueued) just before SetDown
// would still reach a downed endpoint's reader. While nothing is
// partitioned the check is one atomic load.
func (e *Endpoint) dropQueued(d datagram) bool {
	n := e.n
	if n.downCount.Load() == 0 {
		return false
	}
	n.mu.Lock()
	// As in forwardLocked: an injected frame's source is spoofed, so
	// only its destination's partition state applies.
	down := (!d.injected && n.down[d.from]) || n.down[d.to]
	if down {
		n.cnt.Dropped++
	}
	n.mu.Unlock()
	if down {
		releaseFrame(d.frame)
	}
	return down
}

// read copies the datagram out to the caller and recycles its buffer.
func (d datagram) read(b []byte) (int, netip.AddrPort, error) {
	k := copy(b, *d.frame)
	releaseFrame(d.frame)
	return k, d.from, nil
}

// WriteToUDPAddrPort sends one datagram through the network's fault
// plan. It never blocks and, like UDP, never reports delivery failure.
func (e *Endpoint) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	select {
	case <-e.closed:
		return 0, errClosed
	default:
	}
	e.n.send(e.addr, addr, b)
	return len(b), nil
}

// ReadBatch implements internal/fleet's BatchPacketConn: it blocks for
// the first datagram exactly like ReadFromUDPAddrPort, then drains
// whatever else is already queued, up to len(dgs). Batched reads see
// the same per-link datagram sequences as single reads — the fault
// plan runs at send time — so the conformance harness drives the
// fleet's batch code path with the same determinism guarantees.
func (e *Endpoint) ReadBatch(dgs []fleet.Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	n, from, err := e.ReadFromUDPAddrPort(dgs[0].Buf)
	if err != nil {
		return 0, err
	}
	dgs[0].Buf = dgs[0].Buf[:n]
	dgs[0].Addr = from
	filled := 1
	for filled < len(dgs) {
		k, from, ok := e.poll(dgs[filled].Buf)
		if !ok {
			break
		}
		dgs[filled].Buf = dgs[filled].Buf[:k]
		dgs[filled].Addr = from
		filled++
	}
	return filled, nil
}

// WriteBatch implements internal/fleet's BatchPacketConn: the whole
// burst moves under one network-lock acquisition — memnet's analogue
// of one sendmmsg — with each datagram drawing from its link's fault
// stream in order, so a batched sender sees the same per-link fates as
// a single-datagram one.
func (e *Endpoint) WriteBatch(dgs []fleet.Datagram) (int, error) {
	select {
	case <-e.closed:
		return 0, errClosed
	default:
	}
	n := e.n
	n.mu.Lock()
	for i := range dgs {
		n.sendLocked(e.addr, dgs[i].Addr, dgs[i].Buf)
	}
	n.mu.Unlock()
	return len(dgs), nil
}

// Close detaches the endpoint and wakes any blocked reader. A group
// member detaches from its group only; the shared address stays live
// until the last member closes.
func (e *Endpoint) Close() error {
	e.once.Do(func() {
		close(e.closed)
		e.n.mu.Lock()
		if e.grouped {
			g := e.n.groups[e.addr]
			for i, m := range g {
				if m == e {
					g = append(g[:i], g[i+1:]...)
					break
				}
			}
			if len(g) == 0 {
				delete(e.n.groups, e.addr)
			} else {
				e.n.groups[e.addr] = g
			}
		} else {
			delete(e.n.eps, e.addr)
		}
		e.n.mu.Unlock()
	})
	return nil
}
