// Command probefleet boots a fleet: a sharded presence server hosting
// many control points (and, in loopback mode, the devices they monitor)
// inside one process — the internal/fleet runtime as a daemon. It
// prints live aggregate stats and, on SIGINT/SIGTERM, a final per-shard
// counter dump before shutting the fleet down cleanly.
//
// Usage:
//
//	probefleet [-cps N] [-shards N] [-protocol sapp|dcpp|naive] [-period D] [-rate F]
//	           [-loopback N | -device ADDR -device-id N]
//	           [-min-gap D] [-min-cp-delay D]
//	           [-duration D] [-interval D] [-join-ramp D]
//	           [-batch N] [-single] [-reuseport] [-harden]
//	           [-auth-keyfile FILE [-auth-require]]
//	           [-status ADDR] [-admin] [-churn F]
//
// By default it runs self-contained: -loopback N hosts N devices of the
// chosen protocol in a second, devices-only fleet and points the CPs at
// them round-robin. With -device/-device-id the CPs monitor an external
// daemon (cmd/probed) instead.
//
// -rate F is the per-CP probe budget in probes/s: shorthand for
// -protocol naive -period 1/F, the configuration that stresses the
// batched transport path instead of exercising DCPP's frugality.
// -single forces the one-datagram-per-syscall fallback (the baseline
// the batching win is measured against), and -harden switches on the
// adversarial defenses (fleet RuntimeConfig.Harden) and reports their
// counters in the final dump.
//
// -auth-keyfile FILE signs every frame (wire v2) with the key in FILE,
// read once at startup and shared by both fleets; SIGHUP re-reads it
// and rotates live. -auth-require refuses unsigned frames outright.
//
// -status ADDR serves the fleet's status plane (internal/obs) on ADDR:
// Prometheus /metrics (counters plus the probe-RTT, detection-latency,
// handoff-latency, batch-fill and timer-cascade histograms), /healthz,
// /statusz (per-shard JSON snapshot), /debug/flight (the flight
// recorder's newest probe-lifecycle events per shard) and the pprof
// handlers — one mux, explicitly registered, shut down gracefully with
// the daemon. SIGQUIT dumps the flight recorder to stdout without
// stopping the daemon (the classic thread-dump idiom); the final
// SIGINT/SIGTERM dump also prints a latency digest off the histograms.
//
// -admin arms the runtime-administration endpoints on the -status mux
// (POST /admin/cp/add, /admin/cp/remove, /admin/device/add,
// /admin/device/remove, /admin/drain, /admin/rebalance and GET/POST
// /admin/config — see internal/obs): live control-point and device
// churn, shard drain/rebalance and config pushes against the running
// daemon, e.g.
//
//	curl -X POST -d '{"shard":0}' http://localhost:6060/admin/drain
//
// -churn F drives synthetic runtime churn at F ops/s through the same
// admin plane the endpoints use: each operation adds a control point
// (fresh id, round-robin device) until a rolling pool of 100 is live,
// then alternates removing the oldest and adding a new one — the
// steady-state add/remove mix a self-configuring network produces.
// Live stats then also show the churn pool and total ops.
//
// -reuseport binds every CP-fleet shard socket to one shared UDP port
// with SO_REUSEPORT (fleet Config.ReusePort): the kernel demultiplexes
// inbound load across shard sockets by flow hash, and frames it lands
// on the wrong shard ride the in-process handoff path (reported live
// and in the final dump). On platforms without the option the fleet
// falls back to one port per shard with routing still on. Live stats
// then also show the per-shard packet spread (max/mean over the
// interval — 1.00 is a perfectly even demux).
//
// Core count: each shard runs one event-loop goroutine, so shards
// beyond GOMAXPROCS time-share cores. For a scaling run pin both, e.g.
// GOMAXPROCS=4 probefleet -shards 4 -reuseport; with -shards 0 the
// fleet already sizes itself to GOMAXPROCS.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/protocol"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, signalChan()); err != nil {
		fmt.Fprintln(os.Stderr, "probefleet:", err)
		os.Exit(1)
	}
}

func signalChan() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT, syscall.SIGHUP)
	return sig
}

type options struct {
	cps         int
	shards      int
	protocol    string
	params      protocol.Params
	rate        float64
	loopback    int
	device      string
	deviceID    uint
	duration    time.Duration
	interval    time.Duration
	joinRamp    time.Duration
	batch       int
	single      bool
	reuseport   bool
	harden      bool
	authKeyfile string
	authRequire bool
	statusAddr  string
	admin       bool
	churn       float64
}

func run(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("probefleet", flag.ContinueOnError)
	var o options
	fs.IntVar(&o.cps, "cps", 1000, "number of hosted control points")
	fs.IntVar(&o.shards, "shards", 0, "shard count (0 = GOMAXPROCS)")
	fs.StringVar(&o.protocol, "protocol", "dcpp", "protocol: sapp, dcpp or naive")
	fs.DurationVar(&o.params.NaivePeriod, "period", time.Second, "naive probe period")
	fs.IntVar(&o.loopback, "loopback", 1, "host this many loopback devices in-process (0 with -device)")
	fs.StringVar(&o.device, "device", "", "external device UDP address (disables loopback)")
	fs.UintVar(&o.deviceID, "device-id", 1, "external device node id")
	fs.DurationVar(&o.params.DCPPDevice.MinGap, "min-gap", dcpp.DefaultMinGap, "DCPP δ_min for loopback devices")
	fs.DurationVar(&o.params.DCPPDevice.MinCPDelay, "min-cp-delay", dcpp.DefaultMinCPDelay, "DCPP d_min for loopback devices")
	fs.DurationVar(&o.duration, "duration", 0, "run time (0 = until SIGINT/SIGTERM)")
	fs.DurationVar(&o.interval, "interval", time.Second, "live stats interval")
	fs.DurationVar(&o.joinRamp, "join-ramp", 0, "spread CP joins over this long (0 = 200µs per CP, negative disables)")
	fs.Float64Var(&o.rate, "rate", 0, "per-CP probe budget in probes/s (shorthand for -protocol naive -period 1/F)")
	fs.IntVar(&o.batch, "batch", 0, "transport batch: datagrams per recvmmsg/sendmmsg call (0 = fleet default)")
	fs.BoolVar(&o.single, "single", false, "force the one-datagram-per-syscall fallback path")
	fs.BoolVar(&o.reuseport, "reuseport", false, "share one UDP port across CP-fleet shards via SO_REUSEPORT (kernel flow-hash demux; falls back to distinct ports where unsupported)")
	fs.BoolVar(&o.harden, "harden", false, "enable the adversarial defenses (BYE verification, source pinning, replay window, per-source shedding) on both fleets")
	fs.StringVar(&o.authKeyfile, "auth-keyfile", "", "authenticate frames (wire v2 AES-128-CMAC tags) with the master key read from this file; SIGHUP re-reads it and rotates live")
	fs.BoolVar(&o.authRequire, "auth-require", false, "refuse unauthenticated v1 frames outright (needs -auth-keyfile)")
	fs.StringVar(&o.statusAddr, "status", "", "serve the status plane (/metrics, /healthz, /statusz, /debug/flight, pprof) on this address (e.g. localhost:6060)")
	fs.BoolVar(&o.admin, "admin", false, "mount the runtime admin endpoints (/admin/...) on the -status mux")
	fs.Float64Var(&o.churn, "churn", 0, "drive synthetic runtime churn at this many control-point add/remove ops per second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.cps < 1 {
		return fmt.Errorf("-cps %d must be positive", o.cps)
	}
	if o.device == "" && o.loopback < 1 {
		return fmt.Errorf("need -loopback ≥ 1 or an external -device")
	}
	if o.interval <= 0 {
		return fmt.Errorf("-interval %v must be positive", o.interval)
	}
	if o.rate < 0 {
		return fmt.Errorf("-rate %g must be non-negative", o.rate)
	}
	proto := protocol.Name(o.protocol)
	if o.rate > 0 {
		proto = protocol.Naive
		o.params.NaivePeriod = time.Duration(float64(time.Second) / o.rate)
	}
	if o.joinRamp == 0 {
		o.joinRamp = fleet.DefaultJoinRamp(o.cps)
	}
	if o.admin && o.statusAddr == "" {
		return fmt.Errorf("-admin needs -status ADDR to serve the endpoints on")
	}
	if o.churn < 0 {
		return fmt.Errorf("-churn %g must be non-negative", o.churn)
	}
	if o.authRequire && o.authKeyfile == "" {
		return fmt.Errorf("-auth-require needs -auth-keyfile")
	}
	// Both fleets start from one runtime config: the keyfile is read
	// once, and both sign with the same key bytes.
	rt := fleet.RuntimeConfig{Harden: o.harden, AuthRequire: o.authRequire}
	if o.authKeyfile != "" {
		key, err := fleet.LoadAuthKey(o.authKeyfile)
		if err != nil {
			return err
		}
		rt.AuthKey = key
	}

	cpFleet, err := fleet.New(fleet.Config{Shards: o.shards, Batch: o.batch, ForceSingleDatagram: o.single, ReusePort: o.reuseport, RuntimeConfig: rt})
	if err != nil {
		return err
	}
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		return err
	}
	if o.statusAddr != "" {
		status, err := obs.New(obs.Config{Fleet: cpFleet, Admin: o.admin})
		if err != nil {
			return err
		}
		addr, err := status.Start(o.statusAddr)
		if err != nil {
			return fmt.Errorf("status plane: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := status.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "probefleet: status shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "probefleet: status plane on http://%s/ (metrics, statusz, debug/flight, debug/pprof)\n", addr)
	}
	if o.reuseport {
		if cpFleet.ReusePortActive() {
			fmt.Fprintf(out, "probefleet: SO_REUSEPORT active — %d shard socket(s) share port %d\n",
				cpFleet.Shards(), cpFleet.Addrs()[0].Port())
		} else {
			fmt.Fprintln(out, "probefleet: SO_REUSEPORT unavailable here — distinct ports per shard, routing still on")
		}
	}
	if o.authKeyfile != "" {
		mode := "v1 accepted until a peer speaks v2"
		if o.authRequire {
			mode = "unauthenticated frames refused"
		}
		fmt.Fprintf(out, "probefleet: frame authentication on (key from %s, %s); SIGHUP rotates\n", o.authKeyfile, mode)
	}

	// The devices the CPs monitor: in-process loopback or external.
	type target struct {
		id   ident.NodeID
		addr netip.AddrPort
	}
	var targets []target
	var ids ident.Allocator
	var devFleet *fleet.Fleet
	if o.device != "" {
		if o.deviceID == 0 || uint64(o.deviceID) > uint64(^uint32(0)) {
			return fmt.Errorf("-device-id %d out of range", o.deviceID)
		}
		addr, err := fleet.ResolveUDPAddrPort(o.device)
		if err != nil {
			return err
		}
		targets = []target{{id: ident.NodeID(uint32(o.deviceID)), addr: addr}}
	} else {
		var err error
		devFleet, err = fleet.New(fleet.Config{Shards: o.loopback, Batch: o.batch, ForceSingleDatagram: o.single, RuntimeConfig: rt})
		if err != nil {
			return err
		}
		defer devFleet.Close()
		if err := devFleet.Start(); err != nil {
			return err
		}
		for i := 0; i < o.loopback; i++ {
			id := ids.Next()
			dev, err := devFleet.AddDevice(id, func(env core.Env) (core.Device, error) {
				return proto.NewDevice(id, env, o.params)
			})
			if err != nil {
				return err
			}
			targets = append(targets, target{id: id, addr: dev.Addr()})
		}
		fmt.Fprintf(out, "probefleet: %d loopback %s device(s) up, first at %s\n",
			o.loopback, proto, targets[0].addr)
	}

	fmt.Fprintf(out, "probefleet: joining %d %s control points on %d shard(s) over %v\n",
		o.cps, proto, cpFleet.Shards(), o.joinRamp.Round(time.Millisecond))
	pacer := fleet.NewJoinPacer(o.cps, o.joinRamp)
	for i := 0; i < o.cps; i++ {
		policy, err := proto.NewPolicy(o.params)
		if err != nil {
			return err
		}
		tgt := targets[i%len(targets)]
		if _, err := cpFleet.AddControlPoint(fleet.CPConfig{
			ID:             ids.Next(),
			Device:         tgt.id,
			DeviceAddrPort: tgt.addr,
			Policy:         policy,
		}); err != nil {
			return fmt.Errorf("add cp %d: %w", i, err)
		}
		pacer.Tick()
	}
	fmt.Fprintf(out, "probefleet: all %d control points joined\n", o.cps)

	// The -churn driver: a rolling pool of extra control points added
	// and removed through the fleet's admin plane at the requested rate.
	var churnTick <-chan time.Time
	var churnIDs []ident.NodeID
	var churnOps uint64
	churnNext := ident.NodeID(1 << 20) // clear of the Allocator's ids
	if o.churn > 0 {
		iv := time.Duration(float64(time.Second) / o.churn)
		if iv < time.Millisecond {
			iv = time.Millisecond // ticker floor; ops coalesce below it
		}
		ct := time.NewTicker(iv)
		defer ct.Stop()
		churnTick = ct.C
	}
	const churnPool = 100

	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	var timeout <-chan time.Time
	if o.duration > 0 {
		timeout = time.After(o.duration)
	}
	prev := cpFleet.Snapshot()
	for {
		select {
		case <-ticker.C:
			cur := cpFleet.Snapshot()
			printLive(out, prev, cur)
			if o.churn > 0 {
				fmt.Fprintf(out, "          churn pool=%d ops=%d\n", len(churnIDs), churnOps)
			}
			prev = cur
		case <-churnTick:
			churnOps++
			if len(churnIDs) >= churnPool {
				// Remove the oldest pool member, then fall through to add so
				// the pool stays full: one remove+add pair per tick at
				// saturation.
				if err := cpFleet.RemoveControlPoint(churnIDs[0]); err != nil {
					fmt.Fprintf(os.Stderr, "probefleet: churn remove: %v\n", err)
				}
				churnIDs = churnIDs[1:]
				churnOps++
			}
			policy, err := proto.NewPolicy(o.params)
			if err != nil {
				return err
			}
			tgt := targets[int(churnNext)%len(targets)]
			if _, err := cpFleet.AddControlPoint(fleet.CPConfig{
				ID:             churnNext,
				Device:         tgt.id,
				DeviceAddrPort: tgt.addr,
				Policy:         policy,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "probefleet: churn add: %v\n", err)
			} else {
				churnIDs = append(churnIDs, churnNext)
			}
			churnNext++
		case s := <-sig:
			if s == syscall.SIGQUIT {
				// Thread-dump idiom: dump the flight recorder, keep running.
				fmt.Fprintln(out, "probefleet: SIGQUIT — flight recorder dump")
				if err := cpFleet.WriteFlight(out); err != nil {
					fmt.Fprintf(os.Stderr, "probefleet: flight dump: %v\n", err)
				}
				continue
			}
			if s == syscall.SIGHUP {
				// Live key rotation: re-read the keyfile and push it through
				// the admin plane of every fleet this process runs. The
				// dual-key grace keeps in-flight frames verifying.
				if o.authKeyfile == "" {
					fmt.Fprintln(out, "probefleet: SIGHUP ignored — no -auth-keyfile to reload")
					continue
				}
				key, err := fleet.LoadAuthKey(o.authKeyfile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "probefleet: SIGHUP key reload: %v\n", err)
					continue
				}
				for _, fl := range []*fleet.Fleet{devFleet, cpFleet} {
					if fl == nil {
						continue
					}
					rc, _ := fl.ConfigSnapshot()
					rc.AuthKey = key
					if _, err := fl.SetConfig(rc); err != nil {
						fmt.Fprintf(os.Stderr, "probefleet: SIGHUP key rotation: %v\n", err)
					}
				}
				fmt.Fprintf(out, "probefleet: SIGHUP — auth key reloaded from %s\n", o.authKeyfile)
				continue
			}
			fmt.Fprintln(out, "probefleet: signal received, shutting down")
			return finalDump(out, cpFleet, devFleet)
		case <-timeout:
			return finalDump(out, cpFleet, devFleet)
		}
	}
}

func printLive(out io.Writer, prev, cur fleet.Snapshot) {
	dt := (cur.At - prev.At).Seconds()
	if dt <= 0 {
		return
	}
	rate := func(a, b uint64) float64 { return float64(b-a) / dt }
	fill := func(pkts0, pkts1, calls0, calls1 uint64) float64 {
		if calls1 == calls0 {
			return 0
		}
		return float64(pkts1-pkts0) / float64(calls1-calls0)
	}
	fmt.Fprintf(out,
		"[%7s] cps=%d/%d probes/s=%.1f replies/s=%.1f timers/s=%.1f fill=%.1f/%.1f wheel=%d pending=%d errs dec=%d send=%d drop=%d coll=%d",
		cur.At.Round(time.Second),
		cur.Total.LiveControlPoints, cur.Total.ControlPoints,
		rate(prev.Total.ProbesOut, cur.Total.ProbesOut),
		rate(prev.Total.RepliesIn, cur.Total.RepliesIn),
		rate(prev.Total.TimersFired, cur.Total.TimersFired),
		fill(prev.Total.PacketsIn, cur.Total.PacketsIn, prev.Total.SyscallsIn, cur.Total.SyscallsIn),
		fill(prev.Total.PacketsOut, cur.Total.PacketsOut, prev.Total.SyscallsOut, cur.Total.SyscallsOut),
		cur.Total.WheelDepth, cur.Total.PendingProbes,
		cur.Total.DecodeErrors, cur.Total.SendErrors,
		cur.Total.DemuxDrops, cur.Total.DemuxCollisions)
	if cur.Total.HandoffsOut > 0 || cur.Total.HandoffsIn > 0 {
		fmt.Fprintf(out, " handoffs/s=%.1f spread=%.2f",
			rate(prev.Total.HandoffsIn, cur.Total.HandoffsIn),
			shardSpread(prev, cur))
	}
	fmt.Fprintln(out)
}

// shardSpread is max/mean packets (in+out) per shard over the interval:
// 1.00 when the kernel's flow-hash demux (or the NodeID hash) spreads
// load perfectly evenly, larger when one shard carries more than its
// share. 0 means no packets moved.
func shardSpread(prev, cur fleet.Snapshot) float64 {
	if len(cur.Shards) != len(prev.Shards) || len(cur.Shards) == 0 {
		return 0
	}
	var sum, peak uint64
	for i := range cur.Shards {
		p := cur.Shards[i].PacketsIn - prev.Shards[i].PacketsIn +
			cur.Shards[i].PacketsOut - prev.Shards[i].PacketsOut
		sum += p
		if p > peak {
			peak = p
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(peak) * float64(len(cur.Shards)) / float64(sum)
}

// finalDump closes the fleet and prints the last counters — aggregate
// first, then per shard, so the per-shard sums can be eyeballed against
// the total. devFleet is the loopback device fleet when one exists (nil
// with -device); its counters carry the device-side hardening activity
// (probe shedding, forged byes) that never shows on the CP fleet.
func finalDump(out io.Writer, f, devFleet *fleet.Fleet) error {
	snap := f.Snapshot()
	var hist fleet.Histograms
	if f.TelemetryEnabled() {
		hist = f.Histograms()
	}
	err := f.Close()
	// cp is the control-point fleet alone — the headline; t adds the
	// device fleet, for the defence lines and the full listing.
	cp, t := snap.Total, snap.Total
	if devFleet != nil {
		dev := devFleet.Snapshot().Total
		t.Add(&dev)
	}
	fmt.Fprintf(out, "probefleet: final after %s — cps=%d/%d in=%d out=%d syscalls=%d/%d probes=%d replies=%d timers=%d errs dec=%d send=%d drop=%d coll=%d\n",
		snap.At.Round(time.Millisecond),
		cp.LiveControlPoints, cp.ControlPoints, cp.PacketsIn, cp.PacketsOut,
		cp.SyscallsIn, cp.SyscallsOut,
		cp.ProbesOut, cp.RepliesIn, cp.TimersFired,
		cp.DecodeErrors, cp.SendErrors, cp.DemuxDrops, cp.DemuxCollisions)
	if cp.HandoffsOut > 0 || cp.HandoffsIn > 0 {
		fmt.Fprintf(out, "probefleet: handoffs — out=%d in=%d (frames the demux landed on a non-owning shard)\n",
			cp.HandoffsOut, cp.HandoffsIn)
	}
	if h := t.AttemptMismatches + t.RepliesForged + t.ByesForged + t.RepliesReplayed + t.ProbesShed; h > 0 {
		fmt.Fprintf(out, "probefleet: hardening — attempt-mismatch=%d forged replies=%d byes=%d replayed=%d shed=%d\n",
			t.AttemptMismatches, t.RepliesForged, t.ByesForged, t.RepliesReplayed, t.ProbesShed)
	}
	if a := t.AuthVerified + t.AuthStaleKey + t.AuthRejected + t.AuthDowngraded; a > 0 {
		fmt.Fprintf(out, "probefleet: auth — verified=%d stale-key=%d rejected=%d downgrades=%d bad-frames=%d\n",
			t.AuthVerified, t.AuthStaleKey, t.AuthRejected, t.AuthDowngraded, t.BadFrames)
	}
	// Every nonzero counter under its /metrics name: the lines above are
	// a digest, and a counter they do not know still shows here.
	fmt.Fprint(out, "probefleet: counters —")
	for _, d := range fleet.CounterDefs {
		if d.Count == nil {
			continue
		}
		if v := *d.Count(&t); v > 0 {
			fmt.Fprintf(out, " %s=%d", d.Name, v)
		}
	}
	fmt.Fprintln(out)
	if hist.ProbeRTT.Count > 0 {
		us := func(v uint64) time.Duration { return (time.Duration(v) * time.Microsecond).Round(time.Microsecond) }
		fmt.Fprintf(out, "probefleet: latency — rtt p50≤%v p99≤%v (n=%d)",
			us(hist.ProbeRTT.Quantile(0.5)), us(hist.ProbeRTT.Quantile(0.99)), hist.ProbeRTT.Count)
		if hist.DetectionLatency.Count > 0 {
			fmt.Fprintf(out, " detect p50≤%v (n=%d)",
				us(hist.DetectionLatency.Quantile(0.5)), hist.DetectionLatency.Count)
		}
		if hist.HandoffLatency.Count > 0 {
			fmt.Fprintf(out, " handoff p99≤%v", us(hist.HandoffLatency.Quantile(0.99)))
		}
		fmt.Fprintf(out, " fill mean=%.1f\n", hist.BatchFill.Mean())
	}
	for i, c := range snap.Shards {
		fmt.Fprintf(out, "  shard %2d: cps=%d/%d in=%d out=%d probes=%d replies=%d wheel=%d handoffs=%d/%d\n",
			i, c.LiveControlPoints, c.ControlPoints, c.PacketsIn, c.PacketsOut,
			c.ProbesOut, c.RepliesIn, c.WheelDepth, c.HandoffsOut, c.HandoffsIn)
	}
	return err
}
