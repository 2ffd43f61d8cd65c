// Package fleet is the repository's real-network runtime: it hosts
// protocol engines (DCPP/SAPP/naive control points and device engines)
// on UDP sockets and the wall clock. One shard hosting one node is a
// device daemon (cmd/probed) or a single control point (cmd/probecp);
// the same code hosts tens of thousands of engines inside one process
// on a small fixed resource budget (cmd/probefleet).
//
// A UDP socket, a reader goroutine and a timer per node would be right
// for a phone monitoring one device and hopeless for a monitoring
// aggregation point, so the fleet spends them per *shard*:
//
//   - N shards (default GOMAXPROCS), each owning exactly one UDP socket
//     and one event-loop goroutine that both reads the socket and runs
//     the timers. Control points fan in to shards by NodeID hash, the
//     same way SO_REUSEPORT spreads flows across acceptor sockets.
//   - A hierarchical hashed timer wheel per shard replaces per-node
//     time.Timers: every engine's single alarm is an intrusive list
//     entry, so arming is O(1) and sleeping control points cost zero
//     goroutines and zero timer-heap pressure.
//   - Shard I/O is batched end to end: a pooled receive-buffer ring is
//     filled by BatchPacketConn.ReadBatch (one recvmmsg syscall per
//     readable burst on Linux) and engine sends coalesce in a send
//     queue that one WriteBatch (sendmmsg) flushes per timer cascade or
//     dispatched burst. Under load a shard pays a small fraction of a
//     syscall per packet instead of one each way.
//   - The hot path does not allocate: frames decode into a flat
//     wire.Frame (no interface boxing), inbound reply payloads reuse
//     shard-owned scratch, encodes append into the send queue's
//     reusable slots, and the engines' messages are pooled.
//     BenchmarkShardHotPath pins 0 allocs/op.
//
// # Batch transport and the portable fallback
//
// The recvmmsg/sendmmsg binding exists on 64-bit Linux
// (transport_linux.go, the production target); every other platform —
// and any Transport whose conns implement only PacketConn — runs the
// same loops through a loop-over-single-datagram adapter
// (transport.go), one packet per call, byte-for-byte the same traffic.
// Config.ForceSingleDatagram selects the adapter explicitly: it is the
// measured baseline for the batching win and the second leg of the
// batch/single equivalence test. Config.Batch sizes the ring and the
// queue; Counters.SyscallsIn/Out expose the realised calls-per-packet
// ratio.
//
// The single-threaded engine contract holds per shard: a shard's state
// belongs to its loop goroutine alone. Every engine call (packet
// dispatch, alarm expiry, lifecycle) runs on that loop, and every entry
// from outside it — admin commands, handle calls, scrapes — is a
// closure on the shard's command inbox that the loop runs while the
// caller waits (runOn). There is no shard mutex: a shard's behaviour
// depends only on the order of its inbox, and the exact engine code
// from internal/core runs unchanged.
//
// # Reply demultiplexing on a shared socket
//
// Protocol frames carry no destination id — on a per-node socket none
// is needed. A shard therefore routes incoming frames by what they do
// carry:
//
//   - Replies (From = device, Cycle): a pending-probe table keyed by
//     (device, cycle) maps each in-flight probe cycle back to the
//     control point that sent it. Cycle-number spaces are staggered per
//     CP (core.ProberOptions.FirstCycle), so two CPs probing the same
//     device practically never share a live key; the residual collision
//     is detected at insert and counted (Counters.DemuxCollisions).
//   - Byes and announces (From = device): fan out to every hosted CP
//     watching that device.
//   - Probes (From = CP): delivered to the shard's hosted device. Since
//     a probe names only its sender, a shard socket can host at most
//     one device engine; AddDevice places devices on free shards and
//     errors when all are taken. A device daemon (cmd/probed) is a
//     1-shard fleet hosting one; CPs are the scale story.
//
// # Multi-core receive scaling: SO_REUSEPORT and cross-shard handoff
//
// By default every shard binds its own port, and senders address the
// shard that owns their control point — inbound demux is the address.
// Config.ReusePort switches to the multi-core layout: every shard
// socket binds the *same* port with SO_REUSEPORT (Linux), so the
// kernel spreads inbound datagrams across shard sockets by flow hash
// and receive processing fans out across cores with no shared socket
// lock or buffer. The kernel hashes flows, not the fleet's NodeID
// hash, so a frame can land on a shard that does not own its control
// point. Routing closes the gap at O(1) per frame: each control
// point's cycle numbers embed its shard index (the top routeShardBits
// bits of the cycle space, hence Shards <= MaxRoutedShards), a reply's
// owner is read straight out of its echoed cycle number, and a frame
// on the wrong shard is handed off in-process — the decoded frame is
// queued on the owning shard's handoff inbox and its loop is woken by
// a read-deadline poke (Counters.HandoffsOut/HandoffsIn; byes and
// announces fan out by a per-device shard bitmask instead). The
// equivalence test pins that a single socket, distinct ports and a
// shared-address group produce identical protocol outcomes.
//
// # Stats scraping
//
// Fleet.Snapshot runs one command per shard on that shard's loop: a
// struct copy of the counters plus five gauge reads, so its values are
// exact. It waits for the loop to reach its inbox — at most the work in
// progress (one timer cascade or one received burst; an idle shard is
// woken from its socket read by the inbox poke). The loop pays one
// atomic load per iteration to be scrapeable; the benchmark's udp-churn
// workload runs 20 Hz scrapes beside the packet path to keep that trade
// honest (EXPERIMENTS.md "Single-writer shards (PR 38)").
//
// # The shard clock
//
// Engines and event stamps do not read the wall clock; they read
// shard.now, a field. One function refreshes it — shard.tick, the only
// caller of the fleet clock (Fleet.clock, the monotonic offset from the
// fleet's creation) on behalf of anything that stamps — and it runs
// where the loop already has a boundary:
//
//   - at the top of each loop iteration: that read is the `now` the
//     wheel is advanced to;
//   - every Config.Batch firings inside a timer cascade or a queue of
//     handoffs, and before each queued command after the first, so a
//     5 000-alarm join storm is not stamped with one instant;
//   - on entry to dispatchBatch: the burst's receive timestamp;
//   - on runOn's inline branch, where no loop goroutine exists to have
//     ticked. Every other entry from outside the loop (admin commands,
//     handle calls, the destination half of a migration) is a queued
//     command, stamped by the tick at the top of the iteration that
//     drains it, or by the per-command tick above.
//
// Everything else reads the field: cpNode.Now and deviceNode.Now (so
// every core.Prober and device engine), noteProbe's demux entry and
// flight events, the reply arm's RTT and replay-window stamps, both
// token buckets, the auth rotation grace, handoff stamps and the sweep.
// The contract, pinned by clock_test.go: per shard the clock never runs
// backwards; an engine never sees a time earlier than the `now` its
// wheel was advanced to, so an alarm never observes itself firing
// early; the clock is stale by at most one batch of handlers (≈ 8 µs at
// 64 × 120 ns — two orders below the 1 ms wheel tick, three below the
// paper's 22 ms first timeout), and it errs the way stamps already do:
// a send is stamped when its handler runs, ahead of the coalesced
// flush. The retransmit budget TOF + 3·TOS is measured on the shard
// clock at both ends — cycle start and verdict — so "never declared
// absent early" holds exactly, not up to the skew between two reads.
//
// Four sites call the fleet clock directly, because they measure the
// loop rather than stamp its events: Uptime, Snapshot.At, the loop's
// sleep computation and the cascade-duration histogram. That makes at
// most three reads per loop iteration plus one per received burst; a
// read per event would be a quarter of the hot path (EXPERIMENTS.md
// "One clock read per batch"). Fleet.clock is an unexported function
// value set by New — the seam a virtual clock will replace, and at this
// call rate an indirect call is affordable. TestClockSeamIsSingle fails
// on any other time.Now, time.Since or time.Until in this package.
//
// # Transport seam
//
// A shard does not name *net.UDPConn: it reads and writes through the
// PacketConn interface, opened per shard by a Transport. The default
// transport is kernel UDP sockets bound to Config.ListenAddr — the
// production path, byte-for-byte the behaviour before the seam existed.
// Config.Transport swaps in anything else with the same contract;
// internal/memnet provides a deterministic in-memory network with
// injectable loss, delay, duplication, reordering and partitions, which
// internal/conformance uses to drive these exact shard loops over
// hostile links and diff the outcome against the simulator
// (memnet.ListenGroup emulates the kernel's flow-hash spread
// deterministically for the shared-address layout).
//
// # Telemetry and the flight recorder
//
// Each shard also carries an allocation-free telemetry plane, on by
// default: five cache-line-padded atomic log₂-bucket histograms
// (internal/metrics) — probe RTT, detection latency, cross-shard
// handoff latency, receive-batch fill, timer-cascade duration — whose
// hot-path cost is three uncontended atomic adds per observation (the
// 0 allocs/op gate runs with telemetry on), and a bounded flight
// recorder (internal/trace.Ring) of fixed-size probe-lifecycle events
// (probe sent, reply matched, attempt expired, verdicts, handoffs)
// written by the shard loop. Fleet.Histograms merges the shards at
// scrape time; Fleet.FlightSnapshot/WriteFlight dump the recorders;
// internal/obs serves both over HTTP (/metrics in Prometheus text
// format, /statusz, /debug/flight). Both planes are always on; only the
// hot-path harness (HotPathOptions.DisableTelemetry) runs without them,
// to measure what they cost.
//
// # Runtime administration
//
// A running fleet is mutable: AddControlPoint/RemoveControlPoint and
// AddDevice/RemoveDevice work after Start, DrainShard/Rebalance
// migrate control points between shards without losing a pending cycle
// or manufacturing a verdict, and SetConfig pushes versioned runtime
// configuration (hardening toggles, TTLs, admission rates, the
// per-device probe budget that sheds over-budget probes under
// overload). Every mutation executes as a command on the owning
// shard's inbox, bounded for admin commands — same wake path as the
// handoff inbox, one atomic load per loop iteration on the steady
// state, refusals surface as ErrAdmissionRejected. See admin.go for
// the full design, and internal/obs (Config.Admin) for the HTTP
// spelling of this API.
//
// # Authenticated frames
//
// A non-empty RuntimeConfig.AuthKey turns on wire v2: every frame the
// fleet sends carries an AES-128-CMAC tag under a key derived per
// (control point, device) pair from the master secret, and every
// received v2 frame is verified before dispatch — keys are cached per
// peer so the hot path signs and verifies without allocating. Pushing
// a new AuthKey through SetConfig rotates live: the previous key keeps
// verifying for a grace period (Counters.AuthStaleKey) while senders
// move to the new epoch. A peer that has spoken v2 is pinned to it by
// a high-water mark, so stripping tags or replaying old v1 traffic
// cannot downgrade an authenticated pair (Counters.AuthDowngraded);
// RuntimeConfig.AuthRequire refuses v1 outright. The fleet reads no
// files: LoadAuthKey turns a keyfile into an AuthKey. See auth.go for
// the key hierarchy and the verification paths.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"presence/internal/core"
	"presence/internal/ident"
	"presence/internal/trace"
	"presence/internal/wire"
)

// Config assembles a Fleet.
type Config struct {
	// Shards is the number of shards: sockets, event-loop goroutines and
	// timer wheels. Zero means GOMAXPROCS.
	Shards int
	// ListenAddr is the bind address for every shard socket and must
	// leave the port to the kernel (":0") when Shards > 1. Default
	// "127.0.0.1:0".
	ListenAddr string
	// Transport supplies the per-shard packet conns. Nil means kernel
	// UDP sockets bound to ListenAddr — the production path. A custom
	// transport (internal/memnet) lets test harnesses drive the same
	// shard loops over a deterministic fake network; ListenAddr is
	// ignored when it is set.
	Transport Transport
	// Batch is the most datagrams one transport call moves: the size of
	// each shard's pooled receive ring and coalescing send queue. Zero
	// or negative means 64.
	Batch int
	// ForceSingleDatagram makes every shard use the portable
	// one-datagram-per-call path even when the transport implements
	// BatchPacketConn — the baseline the batching win is measured
	// against, and the fallback leg of batch/single equivalence tests.
	ForceSingleDatagram bool
	// ReusePort binds every shard socket to the *same* port with
	// SO_REUSEPORT (Linux; other platforms and unsupported kernels fall
	// back to the classic one-port-per-shard layout), so inbound load is
	// demultiplexed by the kernel across shard sockets instead of
	// funneling through one. The kernel spreads by flow hash, not by the
	// fleet's NodeID hash, so a reply can land on a shard that does not
	// host its control point; ReusePort therefore also switches the fleet
	// to shard-aware routing: each control point's cycle numbers embed
	// its shard index (top routeShardBits bits of the 32-bit cycle
	// space), and a frame landing on the wrong shard is handed off
	// in-process (Counters.HandoffsOut/HandoffsIn) rather than dropped.
	// Requires Shards <= MaxRoutedShards. When a custom Transport is set,
	// ReusePort still enables shard-aware routing — internal/memnet's
	// ListenGroup emulates the kernel's flow-hash spread deterministically
	// — but socket options are the transport's business.
	ReusePort bool
	// Verdicts, if non-nil, receives every terminal presence verdict
	// (device lost, device bye) any hosted control point reaches. It
	// fires on the shard event loop — it must be cheap, must not block,
	// and must not call back into the fleet (such a call would wait on
	// the loop that is running it). It is the fleet-wide hook admin
	// consumers use where per-CP Listeners are impractical (control
	// points added over the admin API).
	Verdicts func(VerdictEvent)
	// RuntimeConfig is the startup value of every setting SetConfig can
	// change later: it becomes configuration version 1. Its zero value
	// is the unhardened, unauthenticated paper runtime.
	RuntimeConfig
}

func (c *Config) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Batch <= 0 {
		c.Batch = defaultBatch
	}
}

// defaultBatch is the default transport batch: large enough that a
// loaded shard amortises a syscall over a big burst, small enough that
// the per-shard rings stay a few hundred KiB.
const defaultBatch = 64

// Snapshot is a consistent-per-shard view of the fleet's counters.
type Snapshot struct {
	// At is the fleet uptime when the snapshot was taken.
	At time.Duration
	// Shards holds one Counters per shard.
	Shards []Counters
	// Total is the element-wise sum over Shards.
	Total Counters
}

// Fleet hosts protocol engines across shards. Construct with New, then
// Start, then Add nodes; Close tears everything down.
type Fleet struct {
	cfg Config
	// clock is the fleet clock: the one monotonic reader, offset from the
	// fleet's creation. New sets it to wallClock(); tests in this package
	// swap it before Start. Only shard.tick and the sites that measure the
	// loop itself call it — see "The shard clock" in the package comment.
	clock func() time.Duration

	// route is Config.ReusePort: shard-aware routing is on, cycle numbers
	// embed shard indices, and stray frames ride the handoff path.
	route bool
	// reusePortActive reports whether the kernel SO_REUSEPORT layout is
	// actually in use (Linux default transport only; false under the
	// distinct-port fallback or a custom Transport).
	reusePortActive bool
	// deviceShard is the index of the shard hosting a device engine, -1
	// while none does. Routed fleets use it to hand stray probes to the
	// device's shard; since a routed fleet's shards share one address, it
	// hosts at most one device.
	deviceShard atomic.Int32

	// watchMu guards watchMask: device id → bitmask of shards hosting at
	// least one watcher, read on the bye/announce fan-out path to hand
	// frames to every watching shard. Maintained always (it is cheap and
	// off the packet hot path); consulted when route is set or after a
	// migration has spread a device's watchers off their hash shards.
	watchMu   sync.Mutex
	watchMask map[ident.NodeID]*shardMask

	mu      sync.Mutex // lifecycle
	started bool
	closed  bool

	// adminMu guards the runtime-admin state below — a leaf mutex like
	// watchMu: taken by shard loops in register/remove, never held
	// across a runOn (commands take it themselves).
	adminMu sync.Mutex
	// dir maps every hosted control point's id to its node, across
	// shards — the admin plane's id→node directory. The node pointer is
	// stable across migrations (the node's owner pointer moves instead).
	dir map[ident.NodeID]*cpNode
	// devices maps hosted device ids to their nodes (nil value = a
	// placement in flight).
	devices map[ident.NodeID]*deviceNode
	// draining marks shards DrainShard emptied; placeShard skips them
	// until Rebalance clears the marks.
	draining []bool
	// rt and rtVer are the master runtime config and its version; each
	// shard loop holds its own copy (shard.rt).
	rt    RuntimeConfig
	rtVer uint64

	// devMu serialises device placement (AddDevice/RemoveDevice), which
	// spans several shard commands.
	devMu sync.Mutex
	// migMu serialises DrainShard/Rebalance: at most one migration runs
	// fleet-wide, so shard order stays a deterministic migration order.
	migMu sync.Mutex
	// migratedAny flips true when the first migration detaches a node and
	// never resets: it gates the unrouted bye/announce watcher fan-out,
	// so fleets that never migrate pay one atomic load per bye and
	// behave bit-identically to the pre-admin runtime.
	migratedAny atomic.Bool
	// admissionBound caches rt.AdmissionQueue for lock-free reads on the
	// command enqueue path.
	admissionBound atomic.Int64

	shards []*shard
	wg     sync.WaitGroup
}

// pendingProbe is one in-flight probe cycle awaiting its reply.
type pendingProbe struct {
	cp *cpNode
	at time.Duration
	// attempts is a bitmask of the attempt numbers actually sent in this
	// cycle: a reply must echo one of them or it is a forgery
	// (Counters.AttemptMismatches).
	attempts uint32
}

// attemptBit maps an attempt number into the pendingProbe bitmask.
// Attempts ≥ 32 never occur (MaxRetransmits is validated far below
// that); returning 0 makes any echo of such a number a mismatch.
func attemptBit(a uint8) uint32 {
	if a >= 32 {
		return 0
	}
	return 1 << a
}

// srcBucket is one token bucket: a source address's probe admission
// (Harden only) or a device's outgoing-probe budget (shedding only).
type srcBucket struct {
	tokens float64
	last   time.Duration
}

// take refills the bucket at hz up to burst, then charges one token;
// false means the bucket is empty and the probe is over its rate.
func (b *srcBucket) take(now time.Duration, hz float64, burst int) bool {
	b.tokens = min(b.tokens+(now-b.last).Seconds()*hz, float64(burst))
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// shard is one socket + event loop + timer wheel + the engines hashed
// onto it. Its loop is the only code that touches its state, except the
// atomics and inboxes below; other goroutines go through runOn.
type shard struct {
	fleet  *Fleet
	index  int
	conn   PacketConn
	bconn  BatchPacketConn // batch view of conn (native or fallback adapter)
	single bool            // fallback adapter in use: per-packet syscall accounting

	// recvRing and recvBufs are the pooled receive ring: recvBufs keeps
	// the full-capacity backing slices, recvRing is re-pointed at them
	// before every ReadBatch. Only the loop goroutine touches them.
	recvRing []Datagram
	recvBufs [][]byte

	// now is the shard clock: the fleet clock as of the last tick(). Every
	// engine (Env.Now) and every event stamp on this shard reads it
	// instead of the wall clock — see "The shard clock" in the package
	// comment.
	now      time.Duration
	wheel    *timerWheel
	cps      map[ident.NodeID]*cpNode
	watchers map[ident.NodeID]map[*cpNode]struct{} // device id → watching CPs
	pending  map[uint64]pendingProbe               // (device, cycle) → awaiting CP
	// completed and sources are Harden-only state (nil otherwise, so the
	// unhardened hot path stays allocation-free): the replay window of
	// accepted demux keys, and the per-source probe-admission buckets.
	completed map[uint64]time.Duration
	sources   map[netip.AddrPort]*srcBucket
	// rt is the shard's copy of the live runtime config, pushed through
	// the command inbox by Fleet.SetConfig.
	rt RuntimeConfig
	// forwards redirects replies of migrated in-flight cycles to the
	// control point's new shard (nil until a migration leaves one
	// behind); see forwardEntry.
	forwards map[uint64]forwardEntry
	// devBudget is the per-device outgoing-probe token-bucket table —
	// nil when rt.PerDeviceProbeHz is zero, so the default hot path pays
	// one nil check.
	devBudget map[ident.NodeID]*srcBucket
	// auth is the shard's frame-authentication plane (auth.go): the live
	// master secrets and the key epoch node schedules cache against.
	// devAuth carries per-device broadcast schedules and v2 high-water
	// marks, nil until authentication enables.
	auth     authPlane
	devAuth  map[ident.NodeID]*devAuthState
	device   *deviceNode
	counters Counters
	liveCPs  int
	// sendQ is the coalescing send queue: engine sends encode into
	// reusable slots and one WriteBatch flushes them per timer cascade /
	// receive burst (inBatch true), or per send where no loop batches
	// (inBatch false: runOn's inline branch).
	sendQ   []Datagram
	inBatch bool
	// scratchSAPP and scratchDCPP are reply-payload scratch: inbound
	// replies hand engines a pointer into the shard instead of boxing a
	// fresh payload per packet. Receivers may read it only until their
	// handler returns — the standard pooled-message contract.
	scratchSAPP core.SAPPReply
	scratchDCPP core.DCPPReply
	sweeper     wheelTimer
	closed      atomic.Bool // set by Fleet.Close: the loop exits, runOn refuses

	// ho is the cross-shard handoff inbox (ReusePort routing): frames the
	// kernel's flow hash landed on the wrong shard, queued here by the
	// receiving shard and drained by this shard's loop. See handoff.go.
	ho inbox[handoffFrame]

	// cmd is the command inbox (admin.go): every entry from outside the
	// loop, queued by runOn (admin commands bounded by
	// RuntimeConfig.AdmissionQueue) and by a migration's source shard,
	// drained by this shard's loop right before the handoffs, woken by
	// the same read-deadline poke.
	cmd inbox[shardCommand]
	// admRejected counts inbox rejects. Incremented off-loop (the loop
	// never sees a rejected command), so it is an atomic that Snapshot
	// reads into Counters.AdmissionRejected.
	admRejected atomic.Uint64
	// loopStarted tells runOn whether a loop goroutine exists to hand a
	// command to; false before Start and in harnesses that drive the
	// loop themselves, where commands execute inline on the caller's
	// goroutine, which owns the shard there.
	loopStarted atomic.Bool
	// loopDone closes when the loop goroutine exits, unblocking runOn
	// callers whose queued commands will never run.
	loopDone chan struct{}

	// hist is the shard's latency histogram set (telemetry.go), nil only
	// in the hot-path harness's telemetry-off baseline. Recorded by the
	// loop, snapshotted by scrapers without a command (the cells are
	// padded atomics).
	hist *shardHists
	// rec is the shard's flight recorder, nil only where hist is. Written
	// and snapshotted only on the loop.
	rec *trace.Ring
}

// maxPoll bounds how long a shard loop sleeps in a read when no timer
// is due sooner: cross-goroutine Adds can schedule an earlier alarm
// while the loop is parked, and this caps how late it can fire.
const maxPoll = 50 * time.Millisecond

// New binds one packet conn per shard (kernel UDP sockets unless
// Config.Transport overrides). The fleet is idle until Start.
func New(cfg Config) (*Fleet, error) {
	cfg.applyDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: Shards %d must be positive", cfg.Shards)
	}
	if cfg.ReusePort && cfg.Shards > MaxRoutedShards {
		return nil, fmt.Errorf("fleet: ReusePort routing supports at most %d shards, got %d", MaxRoutedShards, cfg.Shards)
	}
	rt := cfg.RuntimeConfig
	rt.applyDefaults()
	if err := rt.validate(); err != nil {
		return nil, err
	}
	// f.rt is the one live copy; nothing may read a stale one from f.cfg.
	cfg.RuntimeConfig = RuntimeConfig{}
	reuseActive := false
	transport := cfg.Transport
	if transport == nil {
		addr, err := net.ResolveUDPAddr("udp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("fleet: resolve %q: %w", cfg.ListenAddr, err)
		}
		if cfg.ReusePort && reusePortSupported {
			// One port, Shards sockets: the kernel demultiplexes. A pinned
			// port is fine here — sharing it is the point.
			transport = &reusePortTransport{addr: addr}
			reuseActive = true
		} else {
			if addr.Port != 0 && cfg.Shards > 1 {
				return nil, fmt.Errorf("fleet: ListenAddr %q pins a port; %d shards need \":0\" (or Config.ReusePort on Linux)", cfg.ListenAddr, cfg.Shards)
			}
			transport = udpTransport{addr: addr}
		}
	}
	f := &Fleet{cfg: cfg, clock: wallClock(), route: cfg.ReusePort, reusePortActive: reuseActive, rt: rt, rtVer: 1}
	f.deviceShard.Store(-1)
	f.watchMask = make(map[ident.NodeID]*shardMask)
	f.dir = make(map[ident.NodeID]*cpNode)
	f.devices = make(map[ident.NodeID]*deviceNode)
	f.draining = make([]bool, cfg.Shards)
	f.admissionBound.Store(int64(rt.AdmissionQueue))
	for i := 0; i < cfg.Shards; i++ {
		conn, err := transport.Listen(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		s := &shard{
			fleet:    f,
			index:    i,
			conn:     conn,
			wheel:    newTimerWheel(defaultWheelTick),
			cps:      make(map[ident.NodeID]*cpNode),
			watchers: make(map[ident.NodeID]map[*cpNode]struct{}),
			pending:  make(map[uint64]pendingProbe),
			recvRing: make([]Datagram, cfg.Batch),
			recvBufs: make([][]byte, cfg.Batch),
			sendQ:    make([]Datagram, 0, cfg.Batch),
			loopDone: make(chan struct{}),
			hist:     &shardHists{},
			rec:      trace.NewRing(defaultFlightEvents),
		}
		s.applyConfig(rt) // construction: no loop runs yet
		s.bconn, s.single = batchConn(conn, cfg.ForceSingleDatagram)
		for j := range s.recvBufs {
			s.recvBufs[j] = make([]byte, recvBufSize)
		}
		s.sweeper.fire = s.sweepPending
		f.shards = append(f.shards, s)
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// ReusePortActive reports whether the shard sockets actually share one
// port via kernel SO_REUSEPORT. False when Config.ReusePort was not
// set, on platforms without the option (the fleet fell back to distinct
// ports), and under a custom Transport (socket layout is its business).
func (f *Fleet) ReusePortActive() bool { return f.reusePortActive }

// Routed reports whether shard-aware routing (cycle-embedded shard
// indices + cross-shard handoff) is on — true iff Config.ReusePort.
func (f *Fleet) Routed() bool { return f.route }

// Addrs returns each shard socket's bound address, indexed by shard.
func (f *Fleet) Addrs() []netip.AddrPort {
	addrs := make([]netip.AddrPort, len(f.shards))
	for i, s := range f.shards {
		addrs[i] = s.conn.LocalAddrPort()
	}
	return addrs
}

// Uptime returns the offset of the fleet clock (all engine times are
// offsets from the fleet epoch).
func (f *Fleet) Uptime() time.Duration { return f.clock() }

// wallClock returns the real fleet clock: the monotonic time since the
// call. It is the package's only reader of the wall clock
// (TestClockSeamIsSingle allows two more sites, neither of which stamps
// an event).
func wallClock() func() time.Duration {
	epoch := time.Now()
	return func() time.Duration { return time.Since(epoch) }
}

// tick refreshes the shard clock from the fleet clock and returns it.
// It is the fleet clock's only caller on behalf of engines and event
// stamps; where it runs is listed under "The shard clock" in the package
// comment. A reader that steps backwards leaves the shard clock where it
// was. Runs on the shard loop.
func (s *shard) tick() time.Duration {
	if t := s.fleet.clock(); t > s.now {
		s.now = t
	}
	return s.now
}

// batchEnds reports whether handler i of a run the loop works through
// without returning to the socket — a timer cascade, a queue of
// handoffs — is the first after a full Config.Batch of them. Such runs
// tick there, which is what bounds the shard clock's staleness to one
// batch of handlers: a join storm or a mass timeout is not stamped with
// one instant.
func (s *shard) batchEnds(i int) bool { return i > 0 && i%s.fleet.cfg.Batch == 0 }

// Start launches the shard event loops. Nodes may be added once the
// fleet is started.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if f.started {
		return errors.New("fleet: already started")
	}
	f.started = true
	for _, s := range f.shards {
		// No loop runs yet: this goroutine still owns the shard.
		s.wheel.Schedule(&s.sweeper, s.tick()+s.rt.PendingTTL/2)
		f.wg.Add(1)
		s.loopStarted.Store(true)
		go s.loop()
	}
	return nil
}

// Close stops every shard loop, closes the sockets and waits for the
// loops to exit. It is idempotent.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	var firstErr error
	for _, s := range f.shards {
		s.closed.Store(true)
		if err := s.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.wg.Wait()
	return firstErr
}

// Snapshot gathers every shard's counters (each shard is exact and
// internally consistent; shards are gathered one after another) and
// their sum. Each shard copies its own counters on its loop, so the
// call waits at most for the work that loop is in. After Close a shard
// reports only AdmissionRejected.
func (f *Fleet) Snapshot() Snapshot {
	snap := Snapshot{At: f.clock(), Shards: make([]Counters, len(f.shards))}
	for i, s := range f.shards {
		var c Counters
		s.runOn(false, func(s *shard) error {
			c = s.counters
			c.WheelDepth = s.wheel.Len()
			c.ControlPoints = len(s.cps)
			c.LiveControlPoints = s.liveCPs
			c.PendingProbes = len(s.pending)
			if s.device != nil {
				c.Devices = 1
			}
			return nil
		})
		c.AdmissionRejected = s.admRejected.Load()
		snap.Shards[i] = c
		snap.Total.Add(&c)
	}
	return snap
}

// shardFor hashes a node id onto a shard — the fan-in rule.
func (f *Fleet) shardFor(id ident.NodeID) *shard {
	return f.shards[int(mix64(uint64(id))%uint64(len(f.shards)))]
}

// errClosed reports use-after-Close mistakes.
var errClosed = errors.New("fleet: closed")

// mix64 is splitmix64's finalizer: a cheap, well-dispersed hash for
// shard assignment and cycle-space staggering.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cycleSeed staggers a CP's 32-bit cycle-number space by its id, so
// (device, cycle) demux keys from different CPs on one shard socket
// practically never collide.
func cycleSeed(id ident.NodeID) uint32 {
	return uint32(mix64(uint64(id)*0x9e3779b97f4a7c15 + 1))
}

func pendKey(device ident.NodeID, cycle uint32) uint64 {
	return uint64(device)<<32 | uint64(cycle)
}

// recvBufSize comfortably holds any protocol frame (at most
// wire.MaxFrameSize bytes) with room for oversized junk to be received
// whole and rejected by the decoder rather than truncated into a
// different decode error.
const recvBufSize = 2048

// loop is the shard's event loop: advance the wheel, fire due alarms,
// flush the sends they coalesced, sleep in a deadline-bounded batch
// read, dispatch the burst, flush again, repeat. It is the shard's
// only goroutine and the only code that touches the shard's state.
func (s *shard) loop() {
	defer s.fleet.wg.Done()
	defer close(s.loopDone)
	for {
		if s.closed.Load() {
			return
		}
		now := s.tick()
		s.inBatch = true
		if s.cmd.pending.Load() {
			s.drainCommands()
		}
		if s.ho.pending.Load() {
			s.drainHandoffs()
		}
		due := s.wheel.Advance(now)
		for i, d := range due {
			if s.batchEnds(i) {
				s.tick()
			}
			if d.t.gen == d.gen {
				s.counters.TimersFired++
				d.t.fire()
			}
		}
		if s.hist != nil && len(due) > 0 {
			// One cascade = the loop's largest indivisible unit of work;
			// its distribution is the event loop's responsiveness bound.
			// Measures the loop itself, so it reads the fleet clock.
			s.hist.cascade.Observe(us(s.fleet.clock() - now))
		}
		s.inBatch = false
		s.flushSends()
		wait := maxPoll
		if next, ok := s.wheel.NextDeadline(); ok {
			// How long to sleep is the loop's own business: fleet clock.
			if d := next - s.fleet.clock(); d < wait {
				wait = d
			}
		}
		if wait < 0 {
			// A timer is already due. Do NOT skip the socket: under
			// sustained timer load (tens of thousands of armed CPs fire
			// alarms on almost every tick) skipping would starve reads
			// and overflow the receive buffer. An already-expired
			// deadline turns the batch read into a non-blocking drain of
			// whatever burst is queued, and the next iteration advances
			// the wheel again.
			wait = 0
		}
		// The transport's deadlines are wall-clock instants, so this is
		// the one place the loop converts: not a clock read anybody stamps.
		s.conn.SetReadDeadline(time.Now().Add(wait)) //nolint:errcheck // fails only when closed
		if s.ho.pending.Load() || s.cmd.pending.Load() {
			// A handoff or admin command arrived between the drain above and
			// the deadline we just set, and its wake-up poke (an
			// already-expired deadline written by the sender) may have been
			// overwritten by that store. Re-expire so the read below returns
			// immediately.
			s.conn.SetReadDeadline(pastDeadline) //nolint:errcheck // fails only when closed
		}
		for round := 0; ; round++ {
			for i := range s.recvRing {
				s.recvRing[i].Buf = s.recvBufs[i]
			}
			n, err := s.bconn.ReadBatch(s.recvRing)
			if err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					break // deadline: timers are due
				}
				return // socket closed (or unrecoverable): shard is done
			}
			if s.closed.Load() {
				return
			}
			s.counters.SyscallsIn++
			s.dispatchBatch(s.recvRing[:n])
			// A full ring means more is probably queued: drain it now
			// (bounded, so timer work cannot rot) rather than after the
			// next timer cascade — one cascade can send hundreds of
			// probes whose replies would otherwise outpace one batch of
			// reads per iteration and overflow the receive buffer. The
			// drain rounds poll with an expired deadline: never blocking,
			// one EAGAIN at most.
			if n < len(s.recvRing) || round >= maxDrainRounds {
				break
			}
			s.conn.SetReadDeadline(pastDeadline) //nolint:errcheck // fails only when closed
		}
	}
}

// maxDrainRounds bounds how many extra full batches one loop iteration
// drains before returning to timer work.
const maxDrainRounds = 8

// pastDeadline is an already-expired read deadline: it turns a batch
// read into a non-blocking poll (the net package uses the same trick
// internally for "aLongTimeAgo").
var pastDeadline = time.Unix(1, 0)

// dispatchBatch decodes and routes one received burst, then flushes
// every send the handlers coalesced. Runs on the shard loop.
func (s *shard) dispatchBatch(dgs []Datagram) {
	s.tick() // the burst's receive timestamp
	s.counters.PacketsIn += uint64(len(dgs))
	if s.hist != nil {
		s.hist.fill.Observe(uint64(len(dgs)))
	}
	s.inBatch = true
	var f wire.Frame
	for i := range dgs {
		if err := wire.DecodeFrame(dgs[i].Buf, &f); err != nil {
			s.counters.DecodeErrors++
			if err == wire.ErrBadVersion {
				s.counters.BadFrames++
			}
			continue
		}
		s.dispatchFrame(dgs[i].Addr, &f, false)
	}
	s.inBatch = false
	s.flushSends()
}

// dispatchFrame routes one decoded frame to a hosted engine. Inbound
// replies hand engines shard-owned scratch payloads (valid only for
// the handler call, per the pooled-message contract), so steady-state
// dispatch allocates nothing. Runs on the shard loop.
//
// With ReusePort routing on, a frame may belong to another shard — the
// kernel demultiplexes by flow hash, not NodeID hash — and is then
// queued on the owning shard's handoff inbox instead of being handled
// here. handed marks a frame that already rode that path once: it is
// always handled (or dropped) locally, so no frame loops.
func (s *shard) dispatchFrame(from netip.AddrPort, f *wire.Frame, handed bool) {
	route := s.fleet.route && !handed
	switch f.Kind {
	case wire.KindReplySAPP, wire.KindReplyDCPP, wire.KindReplyEmpty:
		if route {
			// The owning shard's index rides the cycle's top bits (see
			// routedCycleSeed); an index out of range is foreign junk and
			// falls through to the ordinary no-pending-probe accounting.
			if tgt := int(f.Cycle >> routeShardShift); tgt != s.index && tgt < len(s.fleet.shards) {
				s.handoffTo(s.fleet.shards[tgt], from, f)
				return
			}
		}
		key := f.ReplayKey()
		pp, ok := s.pending[key]
		if !ok {
			if !handed {
				if fw, fok := s.forwards[key]; fok {
					// The cycle's control point migrated away with the probe
					// still in flight; the reply chased the old socket. Hand
					// it to the new shard like a ReusePort stray. (handed
					// frames never re-forward, so a stale breadcrumb cannot
					// bounce a frame between shards.)
					s.handoffTo(fw.to, from, f)
					return
				}
			}
			if _, replayed := s.completed[key]; replayed {
				// The key was accepted within the replay window: a
				// replayed copy, not an ordinary latecomer.
				s.counters.RepliesReplayed++
			} else {
				s.counters.DemuxDrops++
			}
			return
		}
		if s.auth.enabled && !s.authCheckReply(pp.cp, f) {
			// Bad or missing tag (or a v1 downgrade). The pending entry is
			// kept: the genuine reply may still be on the wire, so a
			// forgery cannot starve the cycle into a false verdict.
			return
		}
		if pp.attempts&attemptBit(f.Attempt) == 0 {
			// (device, cycle) is pending but this attempt number was
			// never sent: a forged echo. Keep the entry — the genuine
			// reply may still be on the wire.
			s.counters.AttemptMismatches++
			return
		}
		if s.rt.Harden && from != pp.cp.deviceAddr {
			// Right key, wrong source: someone answering for the device.
			// Keep the entry for the genuine reply.
			s.counters.RepliesForged++
			return
		}
		delete(s.pending, key)
		if s.completed != nil || s.hist != nil || s.rec != nil {
			now := s.now
			if s.completed != nil {
				s.completed[key] = now
			}
			if s.hist != nil {
				// RTT from the cycle's first attempt (pp.at survives
				// retransmits), the latency the prober's timeout races.
				s.hist.rtt.Observe(us(now - pp.at))
			}
			if s.rec != nil {
				s.rec.Record(trace.Event{At: now, Kind: trace.EvReplyMatched,
					Device: f.From, CP: pp.cp.id, Cycle: f.Cycle, Attempt: f.Attempt})
			}
		}
		s.counters.RepliesIn++
		m := core.ReplyMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt}
		switch f.Kind {
		case wire.KindReplySAPP:
			s.scratchSAPP = core.SAPPReply{ProbeCount: f.ProbeCount, LastProbers: f.LastProbers}
			m.Payload = &s.scratchSAPP
		case wire.KindReplyDCPP:
			s.scratchDCPP = core.DCPPReply{Wait: f.Wait}
			m.Payload = &s.scratchDCPP
		default:
			m.Payload = core.EmptyReply{}
		}
		pp.cp.prober.OnReply(m)
	case wire.KindProbe:
		if s.device == nil {
			if route {
				if ds := s.fleet.deviceShard.Load(); ds >= 0 && int(ds) != s.index {
					s.handoffTo(s.fleet.shards[ds], from, f)
					return
				}
			}
			s.counters.DemuxDrops++
			return
		}
		if s.sources != nil && !s.admitProbe(from) {
			s.counters.ProbesShed++
			return
		}
		if s.auth.enabled && !s.authCheckProbe(f) {
			// Verify before the peer table sees the claimed sender id, so
			// a forged probe cannot poison reply routing.
			return
		}
		s.device.peers.Note(f.From, from)
		s.device.engine.OnProbe(f.From, core.ProbeMsg{From: f.From, Cycle: f.Cycle, Attempt: f.Attempt})
	case wire.KindBye:
		harden := s.rt.Harden
		for cp := range s.localWatchers(from, f, handed) {
			if harden && from != cp.deviceAddr {
				// A BYE claiming the device but sent from elsewhere.
				s.counters.ByesForged++
				continue
			}
			cp.prober.OnBye(core.ByeMsg{From: f.From})
		}
	case wire.KindAnnounce:
		for cp := range s.localWatchers(from, f, handed) {
			if cp.onAnnounce != nil {
				cp.onAnnounce(core.AnnounceMsg{From: f.From, MaxAge: f.MaxAge})
			}
		}
	default:
		s.counters.DemuxDrops++
	}
}

// localWatchers is the shared prologue of the bye and announce arms of
// dispatchFrame: verify the device's broadcast tag (auth only), hand a
// copy to every other shard hosting a watcher, and return this shard's
// watchers of the device. A frame nobody watches is counted in
// DemuxDrops; a rejected one was counted by the auth check. Either way
// the returned set is empty. Runs on the shard loop.
func (s *shard) localWatchers(from netip.AddrPort, f *wire.Frame, handed bool) map[*cpNode]struct{} {
	if s.auth.enabled {
		st := s.broadcastAuthFor(f.From)
		if st == nil {
			s.counters.DemuxDrops++ // unwatched device, same as pre-auth
			return nil
		}
		if !s.authCheckBroadcast(st, f) {
			return nil
		}
	}
	fanned := false
	if !handed && (s.fleet.route || s.fleet.migratedAny.Load()) {
		// Watchers of one device spread across shards — by NodeID hash
		// under ReusePort routing, or after a migration moved some off
		// their hash shard (a device's peer table keeps the old shard's
		// source address, so its BYE arrives there); hand a copy to
		// every other shard with at least one. Duplicate deliveries are
		// harmless: stopped probers ignore BYEs.
		fanned = s.fanOutToWatchers(from, f)
	}
	ws := s.watchers[f.From]
	if len(ws) == 0 && !fanned {
		s.counters.DemuxDrops++
	}
	return ws
}

// notePending registers a probe attempt in the demux table: the first
// attempt of a cycle claims the (device, cycle) key, retransmits widen
// the entry's acceptable-attempt bitmask. now is the caller's clock
// read (cpNode.Send shares one read between the demux entry and the
// flight recorder). Runs on the shard loop.
func (s *shard) notePending(n *cpNode, cycle uint32, attempt uint8, now time.Duration) {
	key := pendKey(n.device, cycle)
	if n.lastCycle != cycle {
		// The previous cycle can no longer complete (the prober moved
		// on); drop its entry if we still own it.
		oldKey := pendKey(n.device, n.lastCycle)
		if old, ok := s.pending[oldKey]; ok && old.cp == n {
			delete(s.pending, oldKey)
		}
		n.lastCycle = cycle
	} else if pp, ok := s.pending[key]; ok && pp.cp == n {
		// Retransmit of the in-flight cycle: widen the attempt set, keep
		// the original registration time.
		pp.attempts |= attemptBit(attempt)
		s.pending[key] = pp
		return
	}
	if old, ok := s.pending[key]; ok && old.cp != n {
		s.counters.DemuxCollisions++
	}
	s.pending[key] = pendingProbe{cp: n, at: now, attempts: attemptBit(attempt)}
}

// admitProbe charges one probe from the source's token bucket,
// creating the bucket on first contact. Runs on the shard loop;
// Harden only (s.sources is non-nil).
func (s *shard) admitProbe(from netip.AddrPort) bool {
	now := s.now
	b := s.sources[from]
	if b == nil {
		b = &srcBucket{tokens: perSourceBurst, last: now}
		s.sources[from] = b
	}
	return b.take(now, perSourceProbeHz, perSourceBurst)
}

// sweepPending drops demux entries whose cycle can no longer complete
// (stopped CPs, lost replies), expires the replay window, idle
// admission and device-budget buckets and stale migration forwards,
// and re-arms itself. Runs on the shard loop.
func (s *shard) sweepPending() {
	now := s.now
	ttl := s.rt.PendingTTL
	for key, pp := range s.pending {
		if now-pp.at > ttl {
			delete(s.pending, key)
		}
	}
	if s.completed != nil {
		for key, at := range s.completed {
			if now-at > replayWindow {
				delete(s.completed, key)
			}
		}
	}
	if s.sources != nil {
		// A bucket untouched for long enough to be full again carries no
		// information; drop it so the table tracks active sources only.
		idle := perSourceBurst*time.Second/perSourceProbeHz + ttl
		for addr, b := range s.sources {
			if now-b.last > idle {
				delete(s.sources, addr)
			}
		}
	}
	if s.devBudget != nil {
		idle := time.Duration(float64(s.rt.PerDeviceBurst)/s.rt.PerDeviceProbeHz*float64(time.Second)) + ttl
		for id, b := range s.devBudget {
			if now-b.last > idle {
				delete(s.devBudget, id)
			}
		}
	}
	if s.forwards != nil {
		// A forward older than the pending TTL redirects a cycle that can
		// no longer complete anywhere.
		for key, fw := range s.forwards {
			if now-fw.at > ttl {
				delete(s.forwards, key)
			}
		}
	}
	if s.devAuth != nil {
		s.sweepAuth()
	}
	s.wheel.Schedule(&s.sweeper, now+ttl/2)
}

// sendTo encodes msg into the next reusable slot of the shard's
// coalescing send queue — signed (wire v2) when k is non-nil,
// unauthenticated v1 otherwise. Pooled messages are recycled. On the
// loop (timer cascade, receive burst, queued commands) the queue
// flushes once at the end of the batch; on runOn's inline branch, where
// no loop batches, it flushes before the caller returns. Runs on the
// shard loop.
func (s *shard) sendTo(addr netip.AddrPort, msg core.Message, k *wire.AuthKey) {
	defer core.Recycle(msg)
	if len(s.sendQ) == cap(s.sendQ) {
		s.flushSends()
	}
	i := len(s.sendQ)
	s.sendQ = s.sendQ[:i+1]
	d := &s.sendQ[i]
	if d.Buf == nil {
		d.Buf = make([]byte, 0, wire.MaxFrameSize)
	}
	var frame []byte
	var err error
	if k != nil {
		frame, err = wire.AppendEncodeAuth(d.Buf[:0], msg, k)
	} else {
		frame, err = wire.AppendEncode(d.Buf[:0], msg)
	}
	if err != nil {
		s.sendQ = s.sendQ[:i]
		s.counters.SendErrors++
		return
	}
	d.Buf = frame
	d.Addr = addr
	if !s.inBatch {
		s.flushSends()
	}
}

// flushSends transmits the queued datagrams in order: one WriteBatch
// call (one sendmmsg) moves the whole queue on the batch path, while
// the single-datagram fallback pays one write per packet. A datagram
// the transport rejects is counted and skipped. Runs on the shard loop.
func (s *shard) flushSends() {
	q := s.sendQ
	for off := 0; off < len(q); {
		n, err := s.bconn.WriteBatch(q[off:])
		if s.single {
			s.counters.SyscallsOut += uint64(n)
			if err != nil {
				s.counters.SyscallsOut++ // the failed write was a call too
			}
		} else {
			s.counters.SyscallsOut++
		}
		s.counters.PacketsOut += uint64(n)
		off += n
		if err != nil {
			s.counters.SendErrors++
			off++ // skip the datagram the error refers to
		} else if n == 0 {
			break // defensive: a conforming impl never returns (0, nil)
		}
	}
	s.sendQ = s.sendQ[:0]
}

// DeviceBuilder constructs a device engine against the Env the fleet
// hosts it in. It is how the fleet stays protocol-agnostic: wrap
// sapp.NewDevice, dcpp.NewDevice or naive.NewDevice in one.
type DeviceBuilder func(env core.Env) (core.Device, error)
