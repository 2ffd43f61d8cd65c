package conformance

import (
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/simnet"
	"presence/internal/wire"
)

// Synthetic endpoints for checker unit tests.
var (
	cpShard = netip.MustParseAddrPort("198.51.100.1:9001")
	devAddr = netip.MustParseAddrPort("198.51.100.1:9002")
)

func newTestChecker(t *testing.T, id ident.NodeID) *Checker {
	t.Helper()
	c := NewChecker(core.RetransmitConfig{})
	c.SetDevice(devAddr)
	c.RegisterCP(id)
	c.SetShard(id, cpShard)
	return c
}

// sends numbers fed events the way memnet numbers sends (SendSeq), so
// a mark taken between two feeds separates them into before and after.
var sends uint64

func feed(t *testing.T, c *Checker, msg core.Message, from, to netip.AddrPort, v memnet.Verdict) {
	t.Helper()
	sends++
	feedSent(t, c, msg, from, to, v, sends)
}

// feedSent feeds one event that the network counted as send number seq.
func feedSent(t *testing.T, c *Checker, msg core.Message, from, to netip.AddrPort, v memnet.Verdict, seq uint64) {
	t.Helper()
	frame, err := wire.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	c.OnPacket(memnet.PacketEvent{From: from, To: to, Frame: frame, Verdict: v, SendSeq: seq})
}

func probe(t *testing.T, c *Checker, id ident.NodeID, cycle uint32, attempt uint8, v memnet.Verdict) {
	t.Helper()
	feed(t, c, core.ProbeMsg{From: id, Cycle: cycle, Attempt: attempt}, cpShard, devAddr, v)
}

func reply(t *testing.T, c *Checker, dev ident.NodeID, cycle uint32, attempt uint8) {
	t.Helper()
	feed(t, c, core.ReplyMsg{From: dev, Cycle: cycle, Attempt: attempt, Payload: core.EmptyReply{}},
		devAddr, cpShard, memnet.Delivered)
}

func wantViolation(t *testing.T, c *Checker, fragment string) {
	t.Helper()
	for _, v := range c.Violations() {
		if strings.Contains(v, fragment) {
			return
		}
	}
	t.Fatalf("no violation containing %q; got %v", fragment, c.Violations())
}

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

// TestCheckerAcceptsConformingRun: a textbook exchange — lost first
// attempt, answered retransmit, next cycle, then a full budget
// exhaustion and the ABSENT verdict — raises nothing.
func TestCheckerAcceptsConformingRun(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	probe(t, c, id, 100, 0, memnet.Lost)
	probe(t, c, id, 100, 1, memnet.Delivered)
	reply(t, c, 1, 100, 1)
	probe(t, c, id, 101, 0, memnet.Delivered)
	reply(t, c, 1, 101, 0)
	// Device silent: the full budget, then the verdict.
	probe(t, c, id, 102, 0, memnet.Lost)
	probe(t, c, id, 102, 1, memnet.Lost)
	probe(t, c, id, 102, 2, memnet.Lost)
	probe(t, c, id, 102, 3, memnet.Lost)
	c.CPLost(id, sends)
	wantClean(t, c)
}

// TestCheckerAbsentBudget: an ABSENT verdict before the consecutive
// loss budget is exhausted is a violation.
func TestCheckerAbsentBudget(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	probe(t, c, id, 100, 0, memnet.Lost)
	probe(t, c, id, 100, 1, memnet.Lost)
	c.CPLost(id, sends)
	wantViolation(t, c, "budget not exhausted")
}

// TestCheckerCycleMonotonicity: cycle regression and cycle advance
// without a delivered reply are violations.
func TestCheckerCycleMonotonicity(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	probe(t, c, id, 100, 0, memnet.Delivered)
	reply(t, c, 1, 100, 0)
	probe(t, c, id, 99, 0, memnet.Delivered)
	wantViolation(t, c, "cycle regressed")

	c2 := newTestChecker(t, id)
	probe(t, c2, id, 100, 0, memnet.Delivered)
	// Reply never delivered, yet the next cycle starts.
	probe(t, c2, id, 101, 0, memnet.Delivered)
	wantViolation(t, c2, "without a delivered reply")
}

// TestCheckerAttemptDiscipline: attempt gaps, nonzero first attempts
// and budget overruns are violations.
func TestCheckerAttemptDiscipline(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	probe(t, c, id, 100, 0, memnet.Lost)
	probe(t, c, id, 100, 2, memnet.Lost)
	wantViolation(t, c, "attempt sequence broken")

	c2 := newTestChecker(t, id)
	probe(t, c2, id, 100, 1, memnet.Lost)
	wantViolation(t, c2, "began at attempt")

	c3 := newTestChecker(t, id)
	for a := uint8(0); a <= 4; a++ {
		probe(t, c3, id, 100, a, memnet.Lost)
	}
	wantViolation(t, c3, "exceeded the 4-probe budget")
}

// TestCheckerByeBeforeSilence: a DeviceBye verdict without a delivered
// bye frame, and probes after a terminal verdict, are violations.
func TestCheckerByeBeforeSilence(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	c.CPBye(id, sends)
	wantViolation(t, c, "without a delivered bye frame")

	c2 := newTestChecker(t, id)
	feed(t, c2, core.ByeMsg{From: 1}, devAddr, cpShard, memnet.Delivered)
	c2.CPBye(id, sends)
	wantClean(t, c2)
	probe(t, c2, id, 100, 0, memnet.Delivered)
	wantViolation(t, c2, "after terminal verdict")
}

// TestCheckerRemovedCP: probes after a scheduled removal are
// violations; duplicates injected by the network are not sends.
func TestCheckerRemovedCP(t *testing.T) {
	const id ident.NodeID = 7
	c := newTestChecker(t, id)
	feedSent(t, c, core.ProbeMsg{From: id, Cycle: 100, Attempt: 0}, cpShard, devAddr, memnet.Delivered, 1)
	c.CPRemoved(id, 1)
	feedSent(t, c, core.ProbeMsg{From: id, Cycle: 100, Attempt: 1}, cpShard, devAddr, memnet.Delivered, 2)
	wantViolation(t, c, "after removal")

	c2 := newTestChecker(t, id)
	probe(t, c2, id, 100, 0, memnet.Delivered)
	// The same frame again, flagged as a duplicate copy: ignored.
	frame, err := wire.Encode(core.ProbeMsg{From: id, Cycle: 100, Attempt: 0})
	if err != nil {
		t.Fatal(err)
	}
	c2.OnPacket(memnet.PacketEvent{From: cpShard, To: devAddr, Frame: frame, Verdict: memnet.Delivered, Duplicate: true})
	wantClean(t, c2)
}

// TestCheckerUnknownSender: traffic from an unregistered CP is flagged.
func TestCheckerUnknownSender(t *testing.T) {
	c := newTestChecker(t, 7)
	probe(t, c, 99, 100, 0, memnet.Delivered)
	wantViolation(t, c, "unknown CP")
}

// TestCheckerFrameDirection: replies and byes must originate from the
// device's address to satisfy the invariants — forged frames from
// elsewhere are flagged and do not count — and probes must be
// addressed to the device.
func TestCheckerFrameDirection(t *testing.T) {
	const id ident.NodeID = 7
	rogue := netip.MustParseAddrPort("198.51.100.1:9099")

	c := newTestChecker(t, id)
	probe(t, c, id, 100, 0, memnet.Delivered)
	feed(t, c, core.ReplyMsg{From: 1, Cycle: 100, Payload: core.EmptyReply{}}, rogue, cpShard, memnet.Delivered)
	wantViolation(t, c, "non-device address")
	// The forged reply must not license a cycle advance.
	probe(t, c, id, 101, 0, memnet.Delivered)
	wantViolation(t, c, "without a delivered reply")

	c2 := newTestChecker(t, id)
	feed(t, c2, core.ByeMsg{From: 1}, rogue, cpShard, memnet.Delivered)
	c2.CPBye(id, sends)
	wantViolation(t, c2, "without a delivered bye frame")

	c3 := newTestChecker(t, id)
	probe(t, c3, id, 100, 0, memnet.Delivered)
	feed(t, c3, core.ProbeMsg{From: id, Cycle: 100, Attempt: 1}, cpShard, rogue, memnet.Delivered)
	wantViolation(t, c3, "not the device")
}

// TestCheckerRemovalBySendOrder forces the interleaving behind the
// `probe … after removal` flake: with every datagram 20 ms in flight, a
// probe the fleet sent just before ControlPoint.Remove returned is
// delivered, and reported to the checker, after the removal was marked.
// Judged by send order it is clean. A probe sent after the mark is
// still a violation.
func TestCheckerRemovalBySendOrder(t *testing.T) {
	const id ident.NodeID = 7
	net := memnet.New(memnet.Faults{Delay: simnet.Constant(20 * time.Millisecond)})
	defer net.Close()
	dev, err := net.Listen() // a silent device: probes land, nothing answers
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(core.RetransmitConfig{})
	c.SetDevice(dev.LocalAddrPort())
	var mark atomic.Uint64 // zero until the removal is marked
	var lateButEarly atomic.Int64
	net.Observe(func(ev memnet.PacketEvent) {
		if m := mark.Load(); m != 0 && ev.Verdict == memnet.Delivered && ev.SendSeq <= m {
			lateButEarly.Add(1)
		}
		c.OnPacket(ev)
	})

	f, err := fleet.New(fleet.Config{Shards: 1,
		Transport: fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return net.Listen() })})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	policy, err := naive.NewPolicy(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterCP(id)
	cp, err := f.AddControlPoint(fleet.CPConfig{ID: id, Device: 1, DeviceAddrPort: dev.LocalAddrPort(), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	c.SetShard(id, f.Addrs()[0])
	cp.Remove() // the first probe is on the wire, 20 ms from delivery
	m := net.Counters().Sent
	c.CPRemoved(id, m)
	mark.Store(m)
	waitDelivered := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); net.Counters().Delivered < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d datagrams delivered", net.Counters().Delivered, n)
			}
		}
	}
	waitDelivered(m)
	if lateButEarly.Load() == 0 {
		t.Fatal("no probe sent before the mark was delivered after it: the interleaving was not forced")
	}
	wantClean(t, c)

	// The runtime bug the rule exists for: a probe for the removed CP
	// sent after the mark (from a stand-in socket).
	rogue, err := net.Listen()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(core.ProbeMsg{From: id, Cycle: 1, Attempt: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.WriteToUDPAddrPort(frame, dev.LocalAddrPort()); err != nil {
		t.Fatal(err)
	}
	waitDelivered(m + 1)
	wantViolation(t, c, "after removal")
}
