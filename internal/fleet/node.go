package fleet

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
	"presence/internal/trace"
	"presence/internal/wire"
)

// CPConfig configures a fleet-hosted control point.
type CPConfig struct {
	// ID is this CP's node id; it picks the shard (by hash) and the
	// cycle-number space (see the package comment).
	ID ident.NodeID
	// Device is the monitored device's node id.
	Device ident.NodeID
	// DeviceAddr is the device's UDP address, e.g. "127.0.0.1:9300".
	// Ignored when DeviceAddrPort is set — resolve once when adding
	// thousands of CPs against the same device.
	DeviceAddr string
	// DeviceAddrPort is the pre-resolved device address.
	DeviceAddrPort netip.AddrPort
	// Policy chooses the inter-cycle delay (sapp.Policy, dcpp.Policy or
	// naive.Policy). Required; not shared with any other CP.
	Policy core.DelayPolicy
	// Listener observes presence events. Optional. It runs on the shard
	// event loop under the shard mutex: it must be cheap, must not
	// block, and must not call back into the fleet.
	Listener core.Listener
	// Retransmit parameterises the probe cycle. Zero value = paper
	// defaults.
	Retransmit core.RetransmitConfig
	// OnAnnounce, if non-nil, receives device presence announcements
	// under the same constraints as Listener.
	OnAnnounce func(m core.AnnounceMsg)
}

// cpNode is a hosted control point: the prober engine plus its alarm
// slot and demux state. It implements core.Env; every method runs under
// the owning shard's mutex.
type cpNode struct {
	// owner is the shard currently hosting the node. It moves only
	// during a DrainShard/Rebalance migration, written under the old
	// shard's mutex with the new shard's also held; engine callbacks
	// always see the shard whose mutex they run under.
	owner      atomic.Pointer[shard]
	id         ident.NodeID
	device     ident.NodeID
	deviceAddr netip.AddrPort
	prober     *core.Prober
	timer      wheelTimer
	onAnnounce func(core.AnnounceMsg)
	lastCycle  uint32 // cycle currently claimed in the demux table
	stopped    bool
	removed    bool

	// Pair-key schedules for the (this CP, device) relationship, derived
	// lazily against the owning shard's key epoch (auth.go); devAuth
	// points at the shard's per-device auth state so the reply path sets
	// the v2 high-water mark without a map lookup. All nil while
	// authentication is off.
	authEpoch uint64
	authCur   *wire.AuthKey
	authPrev  *wire.AuthKey
	devAuth   *devAuthState
}

var _ core.Env = (*cpNode)(nil)

// sh returns the shard currently owning this node.
func (n *cpNode) sh() *shard { return n.owner.Load() }

// lockShard locks and returns the owning shard, retrying when a
// migration moved the node between the load and the lock (the pointer
// is rewritten under the old shard's mutex, so holding the lock and
// re-reading it is a consistent check).
func (n *cpNode) lockShard() *shard {
	for {
		s := n.sh()
		s.mu.Lock()
		if n.sh() == s {
			s.tick() // entry from outside the loop, which may be parked
			return s
		}
		s.mu.Unlock()
	}
}

// Now implements core.Env on the owning shard's clock: a field read,
// at most one batch of handlers behind the fleet clock.
func (n *cpNode) Now() time.Duration { return n.sh().now }

// Send transmits to the CP's device, registering outgoing probes in the
// shard's demux table so the reply finds its way back. Probes over the
// per-device budget (RuntimeConfig.PerDeviceProbeHz) are shed before
// the wire: the prober sees the cycle exactly as if the probe were
// lost, so overload degrades to slower detection instead of amplified
// probe load.
func (n *cpNode) Send(_ ident.NodeID, msg core.Message) {
	s := n.sh()
	var cycle uint32
	var attempt uint8
	probe := false
	switch m := msg.(type) {
	case *core.ProbeMsg:
		cycle, attempt, probe = m.Cycle, m.Attempt, true
	case core.ProbeMsg:
		cycle, attempt, probe = m.Cycle, m.Attempt, true
	}
	if probe {
		if s.devBudget != nil && !s.admitDeviceProbe(n.device) {
			s.counters.ProbesShed++
			core.Recycle(msg)
			return
		}
		n.noteProbe(s, cycle, attempt)
	}
	var k *wire.AuthKey
	if s.auth.enabled {
		s.ensureCPAuth(n)
		k = n.authCur
	}
	s.sendTo(n.deviceAddr, msg, k)
}

// noteProbe does the bookkeeping of one outgoing probe: the demux
// entry, the probe counter, and the flight-recorder events. A
// retransmit (attempt > 0) implies the previous attempt of the same
// cycle expired unanswered — the prober does not surface that
// transition, so the recorder derives it here. Stamped with the shard
// clock, the same instant the prober's Now() saw when it armed the cycle.
func (n *cpNode) noteProbe(s *shard, cycle uint32, attempt uint8) {
	now := s.now
	s.notePending(n, cycle, attempt, now)
	s.counters.ProbesOut++
	if s.rec != nil {
		if attempt > 0 {
			s.rec.Record(trace.Event{At: now, Kind: trace.EvAttemptExpired,
				Device: n.device, CP: n.id, Cycle: cycle, Attempt: attempt - 1})
		}
		s.rec.Record(trace.Event{At: now, Kind: trace.EvProbeSent,
			Device: n.device, CP: n.id, Cycle: cycle, Attempt: attempt})
	}
}

// SetAlarm implements core.Env on the shard's timer wheel.
func (n *cpNode) SetAlarm(at time.Duration) { n.sh().wheel.Schedule(&n.timer, at) }

// StopAlarm implements core.Env.
func (n *cpNode) StopAlarm() { n.sh().wheel.Cancel(&n.timer) }

// cpListener wraps the user listener to maintain the shard's live-CP
// gauge and deliver the fleet-wide verdict hook. It runs under the
// shard mutex like any engine callback.
type cpListener struct {
	n     *cpNode
	inner core.Listener
}

func (l cpListener) DeviceAlive(d ident.NodeID, res core.CycleResult) {
	l.inner.DeviceAlive(d, res)
}

func (l cpListener) DeviceLost(d ident.NodeID, at time.Duration) {
	n := l.n
	s := n.sh()
	if s.hist != nil {
		// Detection latency as the prober observes it: first probe of the
		// failing cycle → verdict. The pending entry for the CP's current
		// cycle still holds that first-probe time when the verdict fires.
		if pp, ok := s.pending[pendKey(n.device, n.lastCycle)]; ok && pp.cp == n {
			s.hist.detect.Observe(us(at - pp.at))
		}
	}
	if s.rec != nil {
		s.rec.Record(trace.Event{At: at, Kind: trace.EvVerdictLost,
			Device: n.device, CP: n.id, Cycle: n.lastCycle})
	}
	n.markStopped()
	if h := s.fleet.cfg.Verdicts; h != nil {
		h(VerdictEvent{CP: n.id, Device: n.device, Kind: VerdictLost, At: at})
	}
	l.inner.DeviceLost(d, at)
}

func (l cpListener) DeviceBye(d ident.NodeID, at time.Duration) {
	n := l.n
	s := n.sh()
	if s.rec != nil {
		s.rec.Record(trace.Event{At: at, Kind: trace.EvVerdictBye,
			Device: n.device, CP: n.id, Cycle: n.lastCycle})
	}
	n.markStopped()
	if h := s.fleet.cfg.Verdicts; h != nil {
		h(VerdictEvent{CP: n.id, Device: n.device, Kind: VerdictBye, At: at})
	}
	l.inner.DeviceBye(d, at)
}

func (n *cpNode) markStopped() {
	if !n.stopped {
		n.stopped = true
		n.sh().liveCPs--
	}
}

// errNotStarted gates mutation APIs on Fleet.Start.
var errNotStarted = errors.New("fleet: Start before adding nodes")

// AddControlPoint hosts a new control point and starts it probing
// immediately. The node is constructed here but hooked into its shard
// by that shard's event loop (via the admin command inbox), so calling
// goroutines never run engine work. The fleet must be started.
func (f *Fleet) AddControlPoint(cfg CPConfig) (*ControlPoint, error) {
	if !cfg.ID.Valid() {
		return nil, errors.New("fleet: control point needs a valid id")
	}
	if !cfg.Device.Valid() {
		return nil, errors.New("fleet: control point needs a valid device id")
	}
	if cfg.Policy == nil {
		return nil, errors.New("fleet: control point needs a delay policy")
	}
	addr := cfg.DeviceAddrPort
	if !addr.IsValid() {
		var err error
		if addr, err = ResolveUDPAddrPort(cfg.DeviceAddr); err != nil {
			return nil, err
		}
	}
	if err := f.adminReady(); err != nil {
		return nil, err
	}
	s := f.placeShard(cfg.ID)
	n := &cpNode{
		id:         cfg.ID,
		device:     cfg.Device,
		deviceAddr: addr,
		onAnnounce: cfg.OnAnnounce,
	}
	n.owner.Store(s)
	seed := cycleSeed(cfg.ID)
	if f.route {
		// ReusePort routing: the cycle's top bits name the owning shard so
		// any shard can route this CP's replies home with one shift.
		seed = routedCycleSeed(seed, s.index)
	}
	n.lastCycle = seed
	inner := cfg.Listener
	if inner == nil {
		inner = core.NopListener{}
	}
	f.adminMu.Lock()
	verifyBye := f.rt.Harden
	f.adminMu.Unlock()
	prober, err := core.NewProber(core.ProberOptions{
		ID:         cfg.ID,
		Device:     cfg.Device,
		Env:        n,
		Policy:     cfg.Policy,
		Listener:   cpListener{n: n, inner: inner},
		Retransmit: cfg.Retransmit,
		FirstCycle: seed,
		VerifyBye:  verifyBye,
	})
	if err != nil {
		return nil, err
	}
	n.prober = prober
	n.timer.fire = prober.OnAlarm
	// Claim the id fleet-wide before registration so two concurrent adds
	// of the same id cannot both land.
	f.adminMu.Lock()
	if _, dup := f.dir[cfg.ID]; dup {
		f.adminMu.Unlock()
		return nil, fmt.Errorf("fleet: control point %v already hosted", cfg.ID)
	}
	f.dir[cfg.ID] = n
	f.adminMu.Unlock()
	if err := f.runOn(s, func(sh *shard) error {
		sh.registerCPLocked(n)
		return nil
	}); err != nil {
		f.adminMu.Lock()
		if f.dir[cfg.ID] == n {
			delete(f.dir, cfg.ID)
		}
		f.adminMu.Unlock()
		return nil, err
	}
	return &ControlPoint{n: n}, nil
}

// registerCPLocked hooks a fully-constructed control point into the
// shard and starts it probing. Runs under the shard mutex, on the
// shard's event loop when it has one.
func (s *shard) registerCPLocked(n *cpNode) {
	s.cps[n.id] = n
	w := s.watchers[n.device]
	if w == nil {
		w = make(map[*cpNode]struct{})
		s.watchers[n.device] = w
	}
	w[n] = struct{}{}
	s.fleet.noteWatcher(n.device, s.index)
	s.liveCPs++
	if s.auth.enabled {
		// Pre-derive the pair schedules so the first probe and its reply
		// stay on the zero-allocation path.
		s.ensureCPAuth(n)
	}
	n.prober.Start()
}

// removeCPLocked stops a control point and unhooks it from its shard
// and from the fleet directory. Idempotent; runs under the shard mutex.
func (s *shard) removeCPLocked(n *cpNode) {
	if n.removed {
		return
	}
	n.removed = true
	n.prober.Stop() // cancels the wheel alarm via StopAlarm
	if !n.stopped {
		n.stopped = true
		s.liveCPs--
	}
	delete(s.cps, n.id)
	if w := s.watchers[n.device]; w != nil {
		delete(w, n)
		if len(w) == 0 {
			delete(s.watchers, n.device)
			s.fleet.dropWatcher(n.device, s.index)
		}
	}
	key := pendKey(n.device, n.lastCycle)
	if old, ok := s.pending[key]; ok && old.cp == n {
		delete(s.pending, key)
	}
	fl := s.fleet
	fl.adminMu.Lock()
	if fl.dir[n.id] == n {
		delete(fl.dir, n.id)
	}
	fl.adminMu.Unlock()
}

// ControlPoint is the handle to a fleet-hosted control point. Its
// methods serialise against the shard event loop.
type ControlPoint struct {
	n *cpNode
}

// ID returns the control point's node id.
func (cp *ControlPoint) ID() ident.NodeID { return cp.n.id }

// Device returns the monitored device's node id.
func (cp *ControlPoint) Device() ident.NodeID { return cp.n.device }

// Shard returns the index of the shard currently hosting this CP (it
// can change across a DrainShard/Rebalance).
func (cp *ControlPoint) Shard() int { return cp.n.sh().index }

// Stats returns the prober's cycle counters.
func (cp *ControlPoint) Stats() core.ProberStats {
	s := cp.n.lockShard()
	defer s.mu.Unlock()
	return cp.n.prober.Stats()
}

// Stopped reports whether the prober has stopped (device lost or bye).
func (cp *ControlPoint) Stopped() bool {
	s := cp.n.lockShard()
	defer s.mu.Unlock()
	return cp.n.prober.Stopped()
}

// Restart resumes probing after the prober stopped.
func (cp *ControlPoint) Restart() error {
	s := cp.n.lockShard()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if cp.n.removed {
		return errors.New("fleet: control point removed")
	}
	if cp.n.stopped {
		cp.n.stopped = false
		s.liveCPs++
	}
	cp.n.prober.Start()
	return nil
}

// Remove stops the control point and unhooks it from the fleet. It is
// idempotent; the handle is dead afterwards. Fleet.RemoveControlPoint
// is the same operation addressed by id.
func (cp *ControlPoint) Remove() {
	s := cp.n.lockShard()
	defer s.mu.Unlock()
	s.removeCPLocked(cp.n)
}

// deviceNode is a hosted device engine. It implements core.Env; every
// method runs under the owning shard's mutex. Devices never migrate —
// their probe address is the shard socket.
type deviceNode struct {
	shard   *shard
	id      ident.NodeID
	engine  core.Device
	peers   *peerTable
	timer   wheelTimer
	removed bool

	// peerAuth caches pair-key schedules and v2 high-water marks per
	// known control point, bounded by (and evicted with) the peer table;
	// ownKey is the device's broadcast signing schedule (auth.go). Nil
	// while authentication is off.
	peerAuth  map[ident.NodeID]*peerAuthState
	authEpoch uint64
	ownKey    *wire.AuthKey
}

var _ core.Env = (*deviceNode)(nil)

// Now implements core.Env on the hosting shard's clock, like cpNode.Now.
func (n *deviceNode) Now() time.Duration { return n.shard.now }

// Send routes a message to a peer the device has heard from.
func (n *deviceNode) Send(to ident.NodeID, msg core.Message) {
	addr, ok := n.peers.Lookup(to)
	if !ok {
		n.shard.counters.SendErrors++
		core.Recycle(msg)
		return
	}
	var k *wire.AuthKey
	if n.shard.auth.enabled {
		k = n.shard.deviceSendKey(n, to, msg)
	}
	n.shard.sendTo(addr, msg, k)
}

// SetAlarm implements core.Env on the shard's timer wheel.
func (n *deviceNode) SetAlarm(at time.Duration) { n.shard.wheel.Schedule(&n.timer, at) }

// StopAlarm implements core.Env.
func (n *deviceNode) StopAlarm() { n.shard.wheel.Cancel(&n.timer) }

// errShardOccupied is the internal placement signal: try the next
// shard, this one already hosts a device engine.
var errShardOccupied = errors.New("fleet: shard already hosts a device")

// AddDevice hosts a device engine on the first shard without one; a
// device daemon (cmd/probed) is a 1-shard fleet hosting exactly one.
// Probes carry only their sender's id, so one shard socket can
// demultiplex to at most one device engine: a fleet hosts at most
// Shards devices. The fleet must be started.
func (f *Fleet) AddDevice(id ident.NodeID, build DeviceBuilder) (*Device, error) {
	if !id.Valid() {
		return nil, errors.New("fleet: device needs a valid id")
	}
	if build == nil {
		return nil, errors.New("fleet: device needs an engine builder")
	}
	if err := f.adminReady(); err != nil {
		return nil, err
	}
	f.devMu.Lock()
	defer f.devMu.Unlock()
	if f.route && f.deviceShard.Load() >= 0 {
		// Every routed shard socket shares one address, so a second device
		// engine could never be told apart by its probers.
		return nil, errors.New("fleet: a ReusePort fleet shares one address across shards and hosts at most one device")
	}
	f.adminMu.Lock()
	if _, dup := f.devices[id]; dup {
		f.adminMu.Unlock()
		return nil, fmt.Errorf("fleet: device %v already hosted", id)
	}
	f.devices[id] = nil // reserve the id while placement runs
	f.adminMu.Unlock()
	release := func() {
		f.adminMu.Lock()
		delete(f.devices, id)
		f.adminMu.Unlock()
	}
	for _, s := range f.shards {
		var dn *deviceNode
		err := f.runOn(s, func(sh *shard) error {
			if sh.device != nil {
				return errShardOccupied
			}
			nd := &deviceNode{
				shard: sh,
				id:    id,
				peers: newPeerTable(maxPeersPerDevice),
			}
			// Keep the per-peer key cache in lockstep with the peer table's
			// LRU bound.
			nd.peers.OnEvict(func(peer ident.NodeID) { delete(nd.peerAuth, peer) })
			engine, err := build(nd)
			if err != nil {
				return err
			}
			nd.engine = engine
			nd.timer.fire = engine.OnAlarm
			sh.device = nd
			f.deviceShard.CompareAndSwap(-1, int32(sh.index))
			engine.Start()
			dn = nd
			return nil
		})
		if err == errShardOccupied {
			continue
		}
		if err != nil {
			release()
			return nil, err
		}
		f.adminMu.Lock()
		f.devices[id] = dn
		f.adminMu.Unlock()
		return &Device{n: dn}, nil
	}
	release()
	return nil, fmt.Errorf("fleet: all %d shard sockets already host a device (frames carry no destination id; grow Shards or run a second fleet)", len(f.shards))
}

// Device is the handle to a fleet-hosted device engine.
type Device struct {
	n *deviceNode
}

// ID returns the device's node id.
func (d *Device) ID() ident.NodeID { return d.n.id }

// Addr returns the transport address control points should probe.
func (d *Device) Addr() netip.AddrPort {
	return d.n.shard.conn.LocalAddrPort()
}

// Peers returns the number of distinct control points the device has
// heard from (zero after RemoveDevice).
func (d *Device) Peers() int {
	s := d.n.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.n.removed {
		return 0
	}
	return d.n.peers.Len()
}

// Bye announces a graceful leave to every known peer, coalescing the
// fan-out into batched transport writes. A no-op after RemoveDevice.
func (d *Device) Bye() {
	s := d.n.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.n.removed {
		return
	}
	s.tick() // entry from outside the loop
	var k *wire.AuthKey
	if s.auth.enabled {
		k = s.deviceOwnKey(d.n)
	}
	s.inBatch = true
	d.n.peers.Each(func(_ ident.NodeID, addr netip.AddrPort) {
		s.sendTo(addr, core.ByeMsg{From: d.n.id}, k)
	})
	s.inBatch = false
	s.flushSends()
}

// Announce sends a presence announcement to every known peer,
// coalescing the fan-out into batched transport writes. A no-op after
// RemoveDevice.
func (d *Device) Announce(maxAge time.Duration) {
	s := d.n.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.n.removed {
		return
	}
	s.tick() // entry from outside the loop
	var k *wire.AuthKey
	if s.auth.enabled {
		k = s.deviceOwnKey(d.n)
	}
	s.inBatch = true
	d.n.peers.Each(func(_ ident.NodeID, addr netip.AddrPort) {
		s.sendTo(addr, core.AnnounceMsg{From: d.n.id, MaxAge: maxAge}, k)
	})
	s.inBatch = false
	s.flushSends()
}
