package memnet_test

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/fleet"
	"presence/internal/ident"
	"presence/internal/memnet"
	"presence/internal/simnet"
)

// verdictLog records packet fates in arrival order.
type verdictLog struct {
	mu  sync.Mutex
	seq []memnet.Verdict
}

func (l *verdictLog) observe(ev memnet.PacketEvent) {
	l.mu.Lock()
	l.seq = append(l.seq, ev.Verdict)
	l.mu.Unlock()
}

func (l *verdictLog) snapshot() []memnet.Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]memnet.Verdict, len(l.seq))
	copy(out, l.seq)
	return out
}

// TestFaultPatternDeterministic: for a fixed seed, the n-th datagram
// on a link always meets the same fate — the property the conformance
// harness's reproducibility rests on.
func TestFaultPatternDeterministic(t *testing.T) {
	run := func(seed uint64) []memnet.Verdict {
		n := memnet.New(memnet.Faults{
			Seed: seed,
			NewLoss: func() simnet.LossModel {
				return &simnet.GilbertElliott{GoodToBad: 0.2, BadToGood: 0.3, LossBad: 0.8, LossGood: 0.05}
			},
		})
		defer n.Close()
		log := &verdictLog{}
		n.Observe(log.observe)
		a, err := n.Listen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Listen()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := a.WriteToUDPAddrPort([]byte{byte(i)}, b.LocalAddrPort()); err != nil {
				t.Fatal(err)
			}
		}
		return log.snapshot()
	}
	first, second := run(7), run(7)
	if len(first) != 200 || len(second) != 200 {
		t.Fatalf("event counts = %d, %d; want 200 each", len(first), len(second))
	}
	var lost int
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("datagram %d fate differs across runs: %v vs %v", i, first[i], second[i])
		}
		if first[i] == memnet.Lost {
			lost++
		}
	}
	if lost == 0 || lost == 200 {
		t.Fatalf("Gilbert-Elliott channel lost %d/200 — loss model not exercised", lost)
	}
	other := run(8)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 and seed 8 produced identical fault patterns")
	}
}

func TestDeliveryAndAddressing(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	a, _ := n.Listen()
	b, _ := n.Listen()
	if a.LocalAddrPort() == b.LocalAddrPort() {
		t.Fatalf("endpoints share address %v", a.LocalAddrPort())
	}
	if _, err := a.WriteToUDPAddrPort([]byte("hello"), b.LocalAddrPort()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	b.SetReadDeadline(time.Now().Add(time.Second))
	got, from, err := b.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:got]) != "hello" || from != a.LocalAddrPort() {
		t.Fatalf("read %q from %v", buf[:got], from)
	}
	c := n.Counters()
	if c.Sent != 1 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestListenGroupDemux pins the deterministic SO_REUSEPORT emulation:
// group members share one address, a given source always lands on the
// same member (flow affinity), distinct sources spread over members,
// and closing a member shrinks the group (remaining traffic rehashes
// onto the survivors) rather than blackholing its share.
func TestListenGroupDemux(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	members, err := n.ListenGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	shared := members[0].LocalAddrPort()
	for i, m := range members {
		if m.LocalAddrPort() != shared {
			t.Fatalf("member %d address %v, want shared %v", i, m.LocalAddrPort(), shared)
		}
	}

	const senders = 16
	srcs := make([]*memnet.Endpoint, senders)
	for i := range srcs {
		if srcs[i], err = n.Listen(); err != nil {
			t.Fatal(err)
		}
	}
	recvMember := func() map[netip.AddrPort]int {
		got := make(map[netip.AddrPort]int) // source → member index
		for i, m := range members {
			buf := make([]byte, 16)
			for {
				m.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				_, from, err := m.ReadFromUDPAddrPort(buf)
				if err != nil {
					break // deadline: member drained
				}
				if prev, ok := got[from]; ok && prev != i {
					t.Fatalf("source %v delivered to members %d and %d", from, prev, i)
				}
				got[from] = i
			}
		}
		return got
	}

	for round := 0; round < 2; round++ {
		for _, s := range srcs {
			if _, err := s.WriteToUDPAddrPort([]byte("ping"), shared); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := recvMember()
	if len(first) != senders {
		t.Fatalf("%d sources delivered, want %d", len(first), senders)
	}
	hit := make(map[int]bool)
	for _, m := range first {
		hit[m] = true
	}
	if len(hit) < 2 {
		t.Fatalf("all %d sources hashed to one member; demux does not spread", senders)
	}

	// Same sources again: affinity must be stable across sends.
	for _, s := range srcs {
		if _, err := s.WriteToUDPAddrPort([]byte("again"), shared); err != nil {
			t.Fatal(err)
		}
	}
	second := recvMember()
	for src, m := range second {
		if first[src] != m {
			t.Fatalf("source %v moved from member %d to %d without membership change", src, first[src], m)
		}
	}

	// Closing a member rehashes its flows onto the survivors.
	members[0].Close()
	for _, s := range srcs {
		if _, err := s.WriteToUDPAddrPort([]byte("rehash"), shared); err != nil {
			t.Fatal(err)
		}
	}
	live := 0
	for _, m := range members[1:] {
		buf := make([]byte, 16)
		for {
			m.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if _, _, err := m.ReadFromUDPAddrPort(buf); err != nil {
				break
			}
			live++
		}
	}
	if live != senders {
		t.Fatalf("%d of %d datagrams survived a member close", live, senders)
	}
}

// TestConcurrentFastPathCounters hammers the observer-free fast path
// (shared read-lock, sharded links, atomic counters) from many sender
// goroutines at once: every accepted datagram must be accounted for
// exactly once. With -race this doubles as the contention audit for
// the lock split.
func TestConcurrentFastPathCounters(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	const senders, perSender = 8, 200
	sink, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		src, err := n.Listen()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				src.WriteToUDPAddrPort([]byte{byte(j)}, sink.LocalAddrPort()) //nolint:errcheck
			}
		}()
	}
	// Drain concurrently so the bounded inbox never overflows.
	got := 0
	buf := make([]byte, 16)
	deadline := time.Now().Add(10 * time.Second)
	for got < senders*perSender && time.Now().Before(deadline) {
		sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, _, err := sink.ReadFromUDPAddrPort(buf); err == nil {
			got++
		}
	}
	wg.Wait()
	if got != senders*perSender {
		t.Fatalf("read %d datagrams, want %d", got, senders*perSender)
	}
	c := n.Counters()
	if want := uint64(senders * perSender); c.Sent != want || c.Delivered != want {
		t.Fatalf("counters sent=%d delivered=%d, want %d each", c.Sent, c.Delivered, want)
	}
	if c.Lost+c.Dropped+c.Overflowed+c.Duplicated != 0 {
		t.Fatalf("fault-free network recorded faults: %+v", c)
	}
}

func TestReadDeadlineIsNetTimeout(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	e, _ := n.Listen()
	e.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, _, err := e.ReadFromUDPAddrPort(make([]byte, 16))
	var nerr net.Error
	if !errorsAs(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("deadline error = %v, want net.Error with Timeout()", err)
	}
	// A queued datagram beats an already-expired deadline, like a kernel
	// socket with data ready.
	f, _ := n.Listen()
	f.WriteToUDPAddrPort([]byte("x"), e.LocalAddrPort())
	waitFor(t, time.Second, "queued datagram", func() bool { return n.Counters().Delivered == 1 })
	e.SetReadDeadline(time.Now().Add(-time.Second))
	if _, _, err := e.ReadFromUDPAddrPort(make([]byte, 16)); err != nil {
		t.Fatalf("read with queued data = %v", err)
	}
}

// TestSetReadDeadlineRebindsParkedRead: like a kernel socket, moving
// the deadline takes effect on a read that is already parked — a past
// deadline times it out now (the fleet's inbox and handoff wake-ups
// rely on this), a later one keeps it parked beyond the old deadline.
func TestSetReadDeadlineRebindsParkedRead(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	e, _ := n.Listen()
	park := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := e.ReadFromUDPAddrPort(make([]byte, 16))
			done <- err
		}()
		// Let the reader park. Not needed for the outcome — a read that
		// starts after the deadline moved sees the new one on entry — only
		// to exercise the parked path.
		time.Sleep(20 * time.Millisecond)
		return done
	}
	wantTimeout := func(done <-chan error, within time.Duration, what string) {
		t.Helper()
		select {
		case err := <-done:
			var nerr net.Error
			if !errorsAs(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("%s: read returned %v, want a timeout", what, err)
			}
		case <-time.After(within):
			t.Fatalf("%s: read still parked after %v", what, within)
		}
	}

	e.SetReadDeadline(time.Now().Add(time.Minute))
	done := park()
	poked := time.Now()
	e.SetReadDeadline(time.Unix(1, 0))
	wantTimeout(done, 5*time.Second, "deadline moved into the past")
	if took := time.Since(poked); took > 500*time.Millisecond {
		t.Errorf("parked read took %v to notice the past deadline", took)
	}

	e.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
	done = park()
	e.SetReadDeadline(time.Now().Add(time.Minute))
	select {
	case err := <-done:
		t.Fatalf("read returned %v at its old deadline; the later one should have extended the park", err)
	case <-time.After(200 * time.Millisecond):
	}
	e.SetReadDeadline(time.Unix(1, 0))
	wantTimeout(done, 5*time.Second, "extended park poked")
}

func TestCloseWakesReader(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	e, _ := n.Listen()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.ReadFromUDPAddrPort(make([]byte, 16))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	e.Close()
	select {
	case err := <-done:
		var nerr net.Error
		if err == nil || (errorsAs(err, &nerr) && nerr.Timeout()) {
			t.Fatalf("close error = %v, want non-timeout error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader not woken by Close")
	}
}

func TestSetDownPartitions(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	a, _ := n.Listen()
	b, _ := n.Listen()
	n.SetDown(b.LocalAddrPort(), true)
	a.WriteToUDPAddrPort([]byte("x"), b.LocalAddrPort())
	if c := n.Counters(); c.Dropped != 1 || c.Delivered != 0 {
		t.Fatalf("counters with dst down = %+v", c)
	}
	n.SetDown(b.LocalAddrPort(), false)
	a.WriteToUDPAddrPort([]byte("y"), b.LocalAddrPort())
	waitFor(t, time.Second, "healed delivery", func() bool { return n.Counters().Delivered == 1 })
}

func TestDuplicationAndReordering(t *testing.T) {
	n := memnet.New(memnet.Faults{Seed: 3, DuplicateP: 1})
	defer n.Close()
	a, _ := n.Listen()
	b, _ := n.Listen()
	a.WriteToUDPAddrPort([]byte("x"), b.LocalAddrPort())
	waitFor(t, time.Second, "duplicate copies", func() bool { return n.Counters().Delivered == 2 })

	// Reordering: held-back datagrams are overtaken by later traffic.
	n2 := memnet.New(memnet.Faults{Seed: 5, ReorderP: 0.5, ReorderDelay: 5 * time.Millisecond})
	defer n2.Close()
	var mu sync.Mutex
	var order []byte
	n2.Observe(func(ev memnet.PacketEvent) {
		if ev.Verdict == memnet.Delivered {
			mu.Lock()
			order = append(order, ev.Frame[0])
			mu.Unlock()
		}
	})
	c, _ := n2.Listen()
	d, _ := n2.Listen()
	const msgs = 100
	for i := 0; i < msgs; i++ {
		c.WriteToUDPAddrPort([]byte{byte(i)}, d.LocalAddrPort())
	}
	waitFor(t, 2*time.Second, "all deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == msgs
	})
	mu.Lock()
	defer mu.Unlock()
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("no reordering observed across 100 datagrams with ReorderP=0.5")
	}
}

// TestFleetOverMemnet runs the real fleet runtime — shard loops, timer
// wheels, demux — over the in-memory transport: a DCPP device fleet
// and a CP fleet complete probe cycles over a paper-modes network.
func TestFleetOverMemnet(t *testing.T) {
	n := memnet.New(memnet.Faults{Seed: 1, Delay: simnet.PaperModes()})
	defer n.Close()
	transport := fleet.TransportFunc(func(int) (fleet.PacketConn, error) { return n.Listen() })

	devFleet, err := fleet.New(fleet.Config{Shards: 1, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer devFleet.Close()
	if err := devFleet.Start(); err != nil {
		t.Fatal(err)
	}
	devCfg := dcpp.DeviceConfig{MinGap: 5 * time.Millisecond, MinCPDelay: 20 * time.Millisecond}
	dev, err := devFleet.AddDevice(1, func(env core.Env) (core.Device, error) {
		return dcpp.NewDevice(1, env, devCfg)
	})
	if err != nil {
		t.Fatal(err)
	}

	cpFleet, err := fleet.New(fleet.Config{Shards: 2, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer cpFleet.Close()
	if err := cpFleet.Start(); err != nil {
		t.Fatal(err)
	}
	cps := make([]*fleet.ControlPoint, 4)
	for i := range cps {
		policy, err := dcpp.NewPolicy(dcpp.PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cps[i], err = cpFleet.AddControlPoint(fleet.CPConfig{
			ID: ident.NodeID(100 + i), Device: 1,
			DeviceAddrPort: dev.Addr(), Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "cycles over memnet", func() bool {
		for _, cp := range cps {
			if cp.Stats().CyclesOK < 3 {
				return false
			}
		}
		return true
	})

	// A partition of the device is a silent crash: every CP detects the
	// absence within the retransmit budget.
	n.SetDown(dev.Addr(), true)
	waitFor(t, 5*time.Second, "absence detection", func() bool {
		for _, cp := range cps {
			if !cp.Stopped() {
				return false
			}
		}
		return true
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func errorsAs(err error, target *net.Error) bool {
	return errors.As(err, target)
}

// TestObserverFrameOutlivesDelivery pins PacketEvent.Frame's contract —
// valid for the whole observer call — against a receiver that is faster
// than the observer: once a datagram is in an inbox its pooled buffer
// belongs to the reader, who may release it to be overwritten by the
// next send (on this or any other Network: the pool is package-wide)
// while the observer is still reading. Run with -race.
func TestObserverFrameOutlivesDelivery(t *testing.T) {
	n := memnet.New(memnet.Faults{})
	defer n.Close()
	var mu sync.Mutex
	var bad int
	n.Observe(func(ev memnet.PacketEvent) {
		first := ev.Frame[0]
		runtime.Gosched() // the receiver's chance to recycle the buffer
		for _, b := range ev.Frame {
			if b != first {
				mu.Lock()
				bad++
				mu.Unlock()
				return
			}
		}
	})
	src, _ := n.Listen()
	dst, _ := n.Listen()
	other := memnet.New(memnet.Faults{})
	defer other.Close()
	osrc, _ := other.Listen()
	odst, _ := other.Listen()

	const packets = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // drain dst as fast as it fills
		defer wg.Done()
		buf := make([]byte, 64)
		for i := 0; i < packets; i++ {
			dst.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, _, err := dst.ReadFromUDPAddrPort(buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // churn the shared pool from a second network
		defer wg.Done()
		buf := make([]byte, 64)
		payload := bytes.Repeat([]byte{0xff}, 32)
		for i := 0; i < packets; i++ {
			osrc.WriteToUDPAddrPort(payload, odst.LocalAddrPort()) //nolint:errcheck // in-memory
			odst.SetReadDeadline(time.Now().Add(2 * time.Second))
			odst.ReadFromUDPAddrPort(buf) //nolint:errcheck // only draining
		}
	}()
	for i := 0; i < packets; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 32)
		if _, err := src.WriteToUDPAddrPort(payload, dst.LocalAddrPort()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d of %d observed frames changed under the observer", bad, packets)
	}
}
