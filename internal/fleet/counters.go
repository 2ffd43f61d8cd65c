package fleet

// Every counter the fleet keeps is declared here, once: a field of
// Counters and its row in CounterDefs. Snapshot sums through the table
// (Counters.Add), internal/obs renders /metrics from it, /statusz
// marshals the struct, and cmd/probefleet's final dump lists it — so a
// new counter is one field, one row and its increment, all in this
// package.

// Counters tracks one shard's activity. Cumulative fields only ever
// grow; gauge fields (WheelDepth, ControlPoints, LiveControlPoints,
// PendingProbes, Devices) are point-in-time.
type Counters struct {
	PacketsIn    uint64
	PacketsOut   uint64
	DecodeErrors uint64
	// BadFrames counts received frames with a good magic but an
	// unsupported wire version — a subset of DecodeErrors, and the
	// signature of a version flood or a speaker from the future. The
	// decoder returns a static sentinel for these, so the flood costs no
	// allocation.
	BadFrames  uint64
	SendErrors uint64
	// ProbesOut counts probes sent by hosted control points (a subset of
	// PacketsOut; the rest are device replies/byes/announces).
	ProbesOut uint64
	// RepliesIn counts replies demultiplexed to a hosted control point.
	RepliesIn uint64
	// DemuxDrops counts frames that matched no hosted node: replies with
	// no pending probe (duplicates, latecomers), probes on a shard
	// without a device, byes for unwatched devices.
	DemuxDrops uint64
	// DemuxCollisions counts (device, cycle) keys that were claimed by
	// two different live control points — see the package comment.
	DemuxCollisions uint64
	// TimersFired counts timer-wheel expirations delivered to engines.
	TimersFired uint64
	// AttemptMismatches counts replies whose (device, cycle) was pending
	// but whose Attempt named no probe actually sent in that cycle — a
	// forged or corrupted echo. The pending entry is kept. Always on.
	AttemptMismatches uint64
	// RepliesForged counts replies rejected because they arrived from an
	// address other than the probed device's (Harden only).
	RepliesForged uint64
	// ByesForged counts BYE deliveries suppressed because the frame
	// arrived from an address other than the device's (Harden only).
	ByesForged uint64
	// RepliesReplayed counts replies for a (device, cycle) accepted
	// within the last Config.ReplayWindow — replayed copies, as opposed
	// to the never-pending latecomers in DemuxDrops (Harden only).
	RepliesReplayed uint64
	// ProbesShed counts probes to a hosted device dropped by per-source
	// admission (Harden only).
	ProbesShed uint64
	// AuthVerified counts v2 frames whose tag verified (auth only).
	// AuthStaleKey of them verified under the previous master inside the
	// rotation grace window — a live rotation in progress.
	AuthVerified uint64
	AuthStaleKey uint64
	// AuthRejected counts v2 frames whose tag verified under no accepted
	// key: tampered, forged, or signed with an expired master.
	AuthRejected uint64
	// AuthDowngraded counts unauthenticated v1 frames rejected because
	// the sender had already spoken v2 (the per-device high-water mark)
	// or because RuntimeConfig.AuthRequire closes the v1 window entirely.
	AuthDowngraded uint64
	// HandoffsOut counts frames this shard received but forwarded to the
	// owning shard, and HandoffsIn counts frames received that way. With
	// Config.ReusePort set every shard socket shares one port and the
	// kernel demultiplexes by flow hash, not by the fleet's NodeID hash,
	// so a reply can land on any shard and is handed off in-process to
	// the shard that owns the control point. On unrouted fleets both stay
	// zero until a DrainShard/Rebalance migration: replies of in-flight
	// cycles then chase the old socket and ride the same handoff path to
	// the control point's new shard.
	HandoffsOut uint64
	HandoffsIn  uint64
	// Migrations counts control points migrated INTO this shard by
	// DrainShard/Rebalance.
	Migrations uint64
	// AdmissionRejected counts admin commands refused because this
	// shard's bounded command inbox (RuntimeConfig.AdmissionQueue) was
	// full.
	AdmissionRejected uint64
	// SyscallsIn and SyscallsOut count transport read and write calls.
	// On the batch path one call moves a whole burst (one
	// recvmmsg/sendmmsg syscall on kernel sockets), so
	// PacketsIn/SyscallsIn is the mean receive batch fill; on the
	// single-datagram fallback every packet is its own call and the
	// ratios pin at 1.
	SyscallsIn  uint64
	SyscallsOut uint64

	// WheelDepth is the number of pending timers (gauge).
	WheelDepth int
	// ControlPoints is the number of hosted CPs (gauge).
	ControlPoints int
	// LiveControlPoints is the number of hosted CPs that have not
	// stopped (device lost or bye) (gauge).
	LiveControlPoints int
	// PendingProbes is the size of the demux table (gauge).
	PendingProbes int
	// Devices is 1 when the shard hosts a device engine (gauge).
	Devices int
}

// CounterDef is one Counters field as the status plane names it.
// Exactly one accessor is set: Count for a cumulative counter, Level
// for a gauge.
type CounterDef struct {
	// Name is the Prometheus family name; Help its HELP text.
	Name, Help string
	Count      func(*Counters) *uint64
	Level      func(*Counters) *int
}

// CounterDefs has one row per Counters field, in /metrics order
// (counters, then gauges).
var CounterDefs = []CounterDef{
	{Name: "fleet_packets_in_total", Help: "Datagrams received by shard sockets.", Count: func(c *Counters) *uint64 { return &c.PacketsIn }},
	{Name: "fleet_packets_out_total", Help: "Datagrams sent by shard sockets.", Count: func(c *Counters) *uint64 { return &c.PacketsOut }},
	{Name: "fleet_decode_errors_total", Help: "Received datagrams that failed frame decoding.", Count: func(c *Counters) *uint64 { return &c.DecodeErrors }},
	{Name: "fleet_send_errors_total", Help: "Datagrams the transport rejected.", Count: func(c *Counters) *uint64 { return &c.SendErrors }},
	{Name: "fleet_probes_out_total", Help: "Probes sent by hosted control points.", Count: func(c *Counters) *uint64 { return &c.ProbesOut }},
	{Name: "fleet_replies_in_total", Help: "Replies matched to a pending probe.", Count: func(c *Counters) *uint64 { return &c.RepliesIn }},
	{Name: "fleet_demux_drops_total", Help: "Frames matching no hosted node.", Count: func(c *Counters) *uint64 { return &c.DemuxDrops }},
	{Name: "fleet_demux_collisions_total", Help: "Demux keys claimed by two live control points.", Count: func(c *Counters) *uint64 { return &c.DemuxCollisions }},
	{Name: "fleet_timers_fired_total", Help: "Timer-wheel expirations delivered to engines.", Count: func(c *Counters) *uint64 { return &c.TimersFired }},
	{Name: "fleet_attempt_mismatches_total", Help: "Replies echoing an attempt never sent.", Count: func(c *Counters) *uint64 { return &c.AttemptMismatches }},
	{Name: "fleet_replies_forged_total", Help: "Replies rejected for a wrong source address (Harden).", Count: func(c *Counters) *uint64 { return &c.RepliesForged }},
	{Name: "fleet_byes_forged_total", Help: "BYE frames rejected for a wrong source address (Harden).", Count: func(c *Counters) *uint64 { return &c.ByesForged }},
	{Name: "fleet_replies_replayed_total", Help: "Replies replayed inside the replay window (Harden).", Count: func(c *Counters) *uint64 { return &c.RepliesReplayed }},
	{Name: "fleet_probes_shed_total", Help: "Probes dropped by per-source admission (Harden) or the per-device probe budget.", Count: func(c *Counters) *uint64 { return &c.ProbesShed }},
	{Name: "fleet_bad_frames_total", Help: "Received datagrams with a good magic but an unsupported wire version.", Count: func(c *Counters) *uint64 { return &c.BadFrames }},
	{Name: "fleet_auth_verified_total", Help: "Frames whose v2 authentication tag verified under the current key.", Count: func(c *Counters) *uint64 { return &c.AuthVerified }},
	{Name: "fleet_auth_stale_key_total", Help: "Frames verified under the previous key inside the rotation grace.", Count: func(c *Counters) *uint64 { return &c.AuthStaleKey }},
	{Name: "fleet_auth_rejected_total", Help: "v2 frames whose tag verified under no installed key.", Count: func(c *Counters) *uint64 { return &c.AuthRejected }},
	{Name: "fleet_auth_downgraded_total", Help: "v1 frames refused because the peer negotiated v2 (or Require is set).", Count: func(c *Counters) *uint64 { return &c.AuthDowngraded }},
	{Name: "fleet_handoffs_out_total", Help: "Frames forwarded to their owning shard.", Count: func(c *Counters) *uint64 { return &c.HandoffsOut }},
	{Name: "fleet_handoffs_in_total", Help: "Frames received via cross-shard handoff.", Count: func(c *Counters) *uint64 { return &c.HandoffsIn }},
	{Name: "fleet_migrations_total", Help: "Control points migrated between shards (drain/rebalance).", Count: func(c *Counters) *uint64 { return &c.Migrations }},
	{Name: "fleet_admission_rejected_total", Help: "Admin commands rejected by a full admission queue.", Count: func(c *Counters) *uint64 { return &c.AdmissionRejected }},
	{Name: "fleet_syscalls_in_total", Help: "Transport read calls.", Count: func(c *Counters) *uint64 { return &c.SyscallsIn }},
	{Name: "fleet_syscalls_out_total", Help: "Transport write calls.", Count: func(c *Counters) *uint64 { return &c.SyscallsOut }},

	{Name: "fleet_wheel_depth", Help: "Pending timers across shards.", Level: func(c *Counters) *int { return &c.WheelDepth }},
	{Name: "fleet_control_points", Help: "Hosted control points.", Level: func(c *Counters) *int { return &c.ControlPoints }},
	{Name: "fleet_live_control_points", Help: "Hosted control points still probing.", Level: func(c *Counters) *int { return &c.LiveControlPoints }},
	{Name: "fleet_pending_probes", Help: "In-flight probe cycles awaiting replies.", Level: func(c *Counters) *int { return &c.PendingProbes }},
	{Name: "fleet_devices", Help: "Hosted device engines.", Level: func(c *Counters) *int { return &c.Devices }},
}

// Add adds o into c field by field: shards into a fleet total, or one
// fleet's total into another's. o is a pointer so it does not escape
// through the accessors: summing allocates nothing.
func (c *Counters) Add(o *Counters) {
	for _, d := range CounterDefs {
		if d.Count != nil {
			*d.Count(c) += *d.Count(o)
		} else {
			*d.Level(c) += *d.Level(o)
		}
	}
}
