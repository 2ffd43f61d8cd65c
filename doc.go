// Package presence is a Go implementation and reproduction of
//
//	"Are You Still There? — A Lightweight Algorithm To Monitor Node
//	Presence in Self-Configuring Networks", H. Bohnenkamp, J. Gorter,
//	J. Guidi, J.-P. Katoen, DSN 2005.
//
// It provides:
//
//   - the two probe protocols the paper studies — the self-adaptive
//     probe protocol (SAPP) of Bodlaender et al. and the paper's
//     device-controlled probe protocol (DCPP) — plus a naive fixed-rate
//     baseline, all as runtime-agnostic state machines;
//   - a deterministic discrete-event simulation runtime with the paper's
//     network model, churn scenarios and measurements, replacing the
//     MODEST/MÖBIUS tool chain the authors used;
//   - one real-network runtime (internal/fleet) that runs the exact
//     same engine code on UDP sockets and the wall clock: a 1-shard
//     fleet is a single device or control point (cmd/probed,
//     cmd/probecp), and the same runtime hosts tens of thousands of
//     engines in one process for production-scale monitoring
//     aggregation points (cmd/probefleet);
//   - a declarative scenario engine (internal/scenario): a Spec names a
//     protocol, a population model (static, mass leave, uniform churn,
//     flash crowd, Markov on/off sessions, heavy-tailed lifetimes,
//     diurnal arrivals), the network's loss/delay models and a horizon,
//     compiles to the simulation runtime, and round-trips through JSON
//     so scenarios live in files (probesim -scenario runs one);
//   - the full experiment suite regenerating every table and figure of
//     the paper's evaluation (see internal/experiments, cmd/probebench
//     and EXPERIMENTS.md, which catalogues every experiment and
//     registered scenario).
//
// The root package is a facade over the internal packages; examples and
// external users need only import "presence".
//
// # Performance architecture
//
// The simulator is built to sweep paper-scale scenarios by the hundreds:
//
//   - internal/des is a zero-allocation event kernel: a hand-rolled 4-ary
//     min-heap (no interface boxing), a per-simulation free list with
//     generation-counted handles (stale Cancel/Reschedule calls are inert
//     no-ops), and an Alarm that reschedules its pending heap entry in
//     place instead of cancel+push;
//   - the hot message paths are pooled end to end: probe/reply envelopes
//     and payloads (internal/core), in-flight network envelopes
//     (internal/simnet) and processing-delay sends (internal/simrun) are
//     recycled, so the steady-state event loop performs no allocations;
//   - multi-world experiments fan out over a worker pool
//     (internal/experiments.Replications) with index-ordered folding, so
//     replication studies use every core yet produce bit-identical
//     results at any worker count.
//
// Determinism is a hard invariant throughout: for a fixed seed, event
// order, network draws and every reported metric reproduce exactly;
// regression tests in internal/des, internal/simrun and
// internal/experiments pin it. Performance is measured by the benchmark
// of record in bench/ (its own module, `bash bench/run.sh`, catalogued
// in BENCHMARK.json); machine-independent budgets are go tests —
// TestSimulationAllocBudget for the simulator, TestShardHotPathZeroAlloc
// for the fleet's packet path.
//
// # Fleet runtime
//
// internal/fleet is the only real-network runtime. A device daemon
// (cmd/probed) and a lone control point (cmd/probecp) are each a
// 1-shard fleet hosting one engine; an aggregation point monitoring a
// building (cmd/probefleet) is the same code with more shards and
// engines. It spends sockets, goroutines and timers per shard, not per
// node, so the budget stays fixed as engines are added:
//
//   - N shards (default GOMAXPROCS), each owning one UDP socket and one
//     event-loop goroutine; control points fan in to shards by NodeID
//     hash, and with fleet.Config.ReusePort the shard sockets share one
//     UDP port via SO_REUSEPORT so the kernel demultiplexes inbound
//     load across cores, strays riding an in-process cross-shard
//     handoff (cycle numbers embed the owning shard);
//   - one hierarchical hashed timer wheel per shard replaces per-node
//     time.Timers (every engine owns exactly one alarm, an intrusive
//     O(1) list entry);
//   - engines and event stamps read a per-shard clock — a field the
//     loop refreshes once per batch (top of each iteration, every
//     Config.Batch alarms of a cascade, each received burst, each entry
//     from outside the loop) from the fleet's single monotonic reader,
//     so the packet path never asks the wall clock what time it is and
//     the retransmit budget is measured on one clock end to end (fleet
//     package comment, "The shard clock");
//   - replies are demultiplexed on the shared socket by a (device,
//     cycle) pending-probe table, with per-CP staggered cycle-number
//     spaces (core.ProberOptions.FirstCycle) keeping keys disjoint;
//   - per-shard counters roll up through Fleet.Snapshot, which holds
//     each shard's mutex — the shard's only guard — for one copy; every
//     counter is one Counters field and one fleet.CounterDefs row
//     (name, help text), which /metrics, /statusz and the probefleet
//     dump all read (internal/fleet/counters.go). The benchmark's
//     udp-* workloads run 5,000 control points over kernel loopback;
//     the fleet's scale test holds 1,000 on four event-loop goroutines
//     at DCPP's aggregate L_nom budget, and its admin scale test adds
//     and removes 50,000 on a live fleet;
//   - each shard reads and writes through the fleet.PacketConn seam:
//     kernel UDP sockets in production, or any custom fleet.Transport —
//     internal/memnet supplies a deterministic in-memory network with
//     injectable loss (Bernoulli and Gilbert–Elliott), delay,
//     duplication, reordering and partitions for driving the real shard
//     loops over hostile links (its SetReadDeadline re-bounds a read
//     that is already parked, as a kernel socket's does, so the loop's
//     wake-up pokes work over it);
//   - a runtime administration plane mutates a live fleet without
//     stopping it: Add/RemoveControlPoint and Add/RemoveDevice run as
//     commands on the owning shard's bounded inbox (refusals surface as
//     fleet.ErrAdmissionRejected), DrainShard/Rebalance migrate control
//     points between shards without losing a pending cycle or
//     manufacturing a verdict, SetConfig pushes versioned runtime
//     configuration (hardening, TTLs, the per-device probe budget that
//     sheds over-budget probes under overload), and probefleet -admin
//     exposes it all as HTTP endpoints next to /metrics (churn-soak and
//     drain-equivalence tests in internal/fleet pin the contracts).
//
// # Conformance harness
//
// internal/conformance proves the two runtimes implement the same
// protocol: it runs one scenario Spec through the simulator, lifts the
// realised join/leave schedule out of the run, replays it against a
// real fleet over memnet with the same loss/delay models, checks
// protocol invariants online from a wire tap (absent verdicts only
// after the retransmit budget, cycle monotonicity, bye-before-silence)
// and diffs detection-latency/load/false-positive metrics within
// documented tolerances (TestConformanceSuite; the conf-* scenarios in
// the registry are the standing battery).
//
// # Adversarial hardening
//
// The same machinery doubles as an attack range: memnet middleboxes
// (internal/memnet's Middlebox/Injector API) observe, drop and forge
// datagrams in transit, and the adv-* scenarios in the registry mount
// spoofed-BYE, replay, Byzantine-responder and reflection/amplification
// attacks against a live fleet. fleet.RuntimeConfig.Harden switches
// on the defenses — source-pinned reply acceptance, a replay window, BYE
// verification (core.ProberOptions.VerifyBye: a BYE triggers a probe
// cycle instead of an immediate verdict) and per-source admission — and
// internal/conformance diffs the attacked run against the attack-free
// simulation to score false verdicts (TestAdversarialHardened,
// TestAuthAdversarial; hardened-vs-unhardened results in EXPERIMENTS.md
// "Adversarial workloads").
//
// # Authenticated frames
//
// Hardening's heuristics (source pinning, replay windows) cannot stop
// an attacker who forges well-formed frames, so the wire format has an
// authenticated version 2: every frame carries an AES-128-CMAC
// tag under a key derived per (control point, device) pair from a
// master secret (internal/wire's AuthKey/DeriveKey). A non-empty
// FleetRuntimeConfig.AuthKey enables it (LoadFleetAuthKey reads one
// from a keyfile), AuthRequire refuses unauthenticated v1 frames, and
// pushing a new AuthKey rotates the key on a live fleet with a
// dual-key grace (probefleet -auth-keyfile re-reads and rotates on
// SIGHUP). Peers that have spoken v2 are pinned to it (a per-peer
// high-water mark), so stripping the tag or replaying v1 does not
// downgrade them. The adv-auth-* scenarios (frame tampering, forged
// tags, tag stripping, version downgrade against a crashed device)
// gate acceptance of any forged frame at zero, signing and verifying
// stay inside the hot path's 0 allocs/op budget (the BENCH "auth"
// section), and the downgrade attack is kept as an expected failure of
// hardening alone — the measured reason the MAC exists (EXPERIMENTS.md
// "Authenticated frames").
//
// # Observability
//
// The fleet carries a zero-allocation telemetry plane, always on:
//
//   - internal/metrics: cache-line-padded atomic log₂-bucket histograms
//     record probe RTT, detection latency, cross-shard handoff latency,
//     receive-batch fill and timer-cascade duration on the shard hot
//     path (three uncontended atomic adds per observation; the 0
//     allocs/op gate runs with telemetry on), merged across shards at
//     scrape time and rendered in Prometheus text exposition format by
//     a stdlib-only writer;
//   - internal/trace: a bounded per-shard flight recorder — a ring of
//     fixed-size probe-lifecycle events (probe sent, reply matched,
//     attempt expired, verdicts, handoffs) — dumpable live
//     (/debug/flight, SIGQUIT on probefleet) and normalizable
//     (trace.Normalize) into per-CP timelines that are byte-identical
//     across same-structure memnet runs, so conformance failures carry
//     their probe-level evidence (Result.Flight);
//   - internal/obs: the status server probefleet -status mounts —
//     /metrics, /healthz, /statusz (per-shard JSON snapshot including
//     memnet middlebox counters when scraping a memnet-backed fleet)
//     and explicitly registered pprof handlers on one gracefully
//     shut-down mux. The traced hot-plain benchmark reports the
//     telemetry plane's hot-path cost (fleet.telemetry_ns), and
//     TestShardHotPathZeroAlloc fails if the instrumented path ever
//     allocates.
//
// # Quick start (simulation)
//
//	w, err := presence.NewSimulation(presence.SimConfig{
//		Protocol: presence.ProtocolDCPP,
//		Seed:     1,
//	})
//	if err != nil { ... }
//	w.AddCPs(20)
//	w.Run(5 * time.Minute)
//	load := w.DeviceLoad().Stats() // ≈ 10 probes/s, never above L_nom
//
// # Quick start (real network)
//
// Each side runs in a 1-shard fleet of its own, as cmd/probed and
// cmd/probecp do; closing the device's fleet is a silent crash.
//
//	devices, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
//	if err != nil { ... }
//	devices.Start()
//	dev, err := devices.AddDevice(1,
//		presence.NewDCPPDeviceBuilder(1, presence.DefaultDCPPDeviceConfig()))
//	...
//	cps, err := presence.NewFleet(presence.FleetConfig{Shards: 1})
//	...
//	cps.Start()
//	cp, err := presence.NewFleetDCPPControlPoint(cps, presence.FleetCPConfig{
//		ID: 2, Device: 1, DeviceAddr: dev.Addr().String(),
//	}, presence.DCPPPolicyConfig{}, listener)
package presence
