package fleet

import (
	"testing"
)

// TestShardHotPathSanity pins what one Step moves through the shard:
// per CP one probe in, one reply out, one reply in, one probe out, and
// on the batch path far fewer transport calls than packets.
func TestShardHotPathSanity(t *testing.T) {
	const cps = 32
	h, err := NewHotPathBench(HotPathOptions{CPs: cps})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const steps = 10
	for i := 0; i < steps; i++ {
		h.Step()
	}
	c := h.Counters()
	// Join queues one probe burst before the first Step, and each Step
	// leaves the next burst queued, so after N steps: N bursts of
	// probes were delivered (and replied to), N reply bursts delivered,
	// and N+1 probe bursts plus N reply bursts were written out.
	if want := uint64(2 * steps * cps); c.PacketsIn != want {
		t.Errorf("PacketsIn = %d, want %d", c.PacketsIn, want)
	}
	if want := uint64((2*steps + 1) * cps); c.PacketsOut != want {
		t.Errorf("PacketsOut = %d, want %d", c.PacketsOut, want)
	}
	if c.RepliesIn != uint64(steps*cps) {
		t.Errorf("RepliesIn = %d, want %d", c.RepliesIn, steps*cps)
	}
	if c.DemuxDrops != 0 || c.DemuxCollisions != 0 || c.DecodeErrors != 0 || c.SendErrors != 0 {
		t.Errorf("unexpected errors in counters: %+v", c)
	}
	// Batch path: a whole burst per transport call. The device's reply
	// fan-out flushes once per dispatched receive batch, so transport
	// calls scale with bursts, not packets.
	if c.SyscallsIn >= c.PacketsIn/4 {
		t.Errorf("SyscallsIn = %d for %d packets; batching not effective", c.SyscallsIn, c.PacketsIn)
	}
	if c.SyscallsOut >= c.PacketsOut/4 {
		t.Errorf("SyscallsOut = %d for %d packets; batching not effective", c.SyscallsOut, c.PacketsOut)
	}

	// The single-datagram fallback moves the same packets with one call
	// per packet.
	hs, err := NewHotPathBench(HotPathOptions{CPs: cps, ForceSingleDatagram: true})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	for i := 0; i < steps; i++ {
		hs.Step()
	}
	cs := hs.Counters()
	if cs.PacketsIn != c.PacketsIn || cs.PacketsOut != c.PacketsOut {
		t.Errorf("single path moved %d/%d packets, batch path %d/%d",
			cs.PacketsIn, cs.PacketsOut, c.PacketsIn, c.PacketsOut)
	}
	if cs.SyscallsIn != cs.PacketsIn {
		t.Errorf("single path SyscallsIn = %d, want one per packet (%d)", cs.SyscallsIn, cs.PacketsIn)
	}
	if cs.SyscallsOut != cs.PacketsOut {
		t.Errorf("single path SyscallsOut = %d, want one per packet (%d)", cs.SyscallsOut, cs.PacketsOut)
	}
}

// TestShardHotPathZeroAlloc asserts the steady-state shard packet path
// — batch read, decode, demux, engine calls, encode, batch write,
// timer fire — allocates nothing per Step.
func TestShardHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	h, err := NewHotPathBench(HotPathOptions{CPs: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Warm up: first cycles touch pools, map buckets and the send
	// queue's lazily allocated slots.
	for i := 0; i < 10; i++ {
		h.Step()
	}
	if allocs := testing.AllocsPerRun(100, h.Step); allocs != 0 {
		t.Fatalf("shard hot path allocates %.1f times per step, want 0", allocs)
	}
}

// TestShardHotPathZeroAllocAuth is the same gate with frame
// authentication ON: pre-derived schedules mean signing and verifying
// every probe and reply adds MAC work but no heap traffic.
func TestShardHotPathZeroAllocAuth(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	h, err := NewHotPathBench(HotPathOptions{CPs: 64, Auth: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Step() // warm-up: first contact derives the peer-key schedules
	}
	c := h.Counters()
	if c.AuthVerified == 0 {
		t.Fatal("auth harness verified no frames; authentication not active")
	}
	if c.AuthRejected != 0 || c.AuthDowngraded != 0 {
		t.Fatalf("genuine traffic rejected: %+v", c)
	}
	if allocs := testing.AllocsPerRun(100, h.Step); allocs != 0 {
		t.Fatalf("authenticated shard hot path allocates %.1f times per step, want 0", allocs)
	}
}

// BenchmarkShardHotPath measures the per-packet cost of the shard's
// batched hot path; the allocation gate is TestShardHotPathZeroAlloc.
func BenchmarkShardHotPath(b *testing.B) {
	h, err := NewHotPathBench(HotPathOptions{CPs: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Step() // warm-up, as in the zero-alloc test
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(h.PacketsPerStep()), "packets/op")
}

// BenchmarkShardHotPathAuth is the same workload with frame
// authentication ON — the measured ns/packet cost of signing and
// verifying every frame, still at 0 allocs/op.
func BenchmarkShardHotPathAuth(b *testing.B) {
	h, err := NewHotPathBench(HotPathOptions{CPs: 64, Auth: true})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(h.PacketsPerStep()), "packets/op")
}

// BenchmarkShardHotPathSingle is the same workload over the
// single-datagram fallback: the baseline the batching win is measured
// against.
func BenchmarkShardHotPathSingle(b *testing.B) {
	h, err := NewHotPathBench(HotPathOptions{CPs: 64, ForceSingleDatagram: true})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(h.PacketsPerStep()), "packets/op")
}
