package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/naive"
	"presence/internal/ident"
	"presence/internal/trace"
)

// The shard-clock contract (fleet.go, "The shard clock"), pinned by
// swapping the fleet's unexported reader before Start.

// TestClockReadsPerStep: the packet path reads the fleet clock once per
// batch, not per packet — a Step that moves one burst each way makes
// the same three reads at 64 and at 256 control points, and a Step
// split into more bursts makes three per burst.
func TestClockReadsPerStep(t *testing.T) {
	readsPerStep := func(opts HotPathOptions) int {
		t.Helper()
		h, err := NewHotPathBench(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		reads := 0
		wall := h.fleet.clock
		h.fleet.clock = func() time.Duration { reads++; return wall() }
		const steps = 10
		for i := 0; i < steps; i++ {
			h.Step()
		}
		if reads%steps != 0 {
			t.Fatalf("%+v: %d reads over %d steps: not constant per step", opts, reads, steps)
		}
		return reads / steps
	}
	small := readsPerStep(HotPathOptions{CPs: 64, Batch: 64})
	large := readsPerStep(HotPathOptions{CPs: 256, Batch: 256})
	if small != large || small > 4 {
		t.Errorf("clock reads per one-burst Step: %d at 64 CPs, %d at 256; want equal and <= 4", small, large)
	}
	// 256 CPs through a 64-datagram batch: four probe bursts, four reply
	// bursts, four batches of alarms.
	if got := readsPerStep(HotPathOptions{CPs: 256, Batch: 64}); got != 4*small {
		t.Errorf("clock reads per four-burst Step = %d, want %d (reads scale with bursts, not packets)", got, 4*small)
	}
}

// TestClockCascadeTicksPerBatch: a long timer cascade is not stamped
// with one instant. Under a reader that advances only when read, 1000
// alarms due together see a new Env.Now() every Batch alarms, never a
// decreasing one, and none earlier than their deadline.
func TestClockCascadeTicksPerBatch(t *testing.T) {
	const alarms = 1000
	const due = 10 * time.Millisecond
	f, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reads atomic.Int64
	f.clock = func() time.Duration { return time.Duration(reads.Add(1)) * time.Millisecond }

	s := f.shards[0]
	var seen []time.Duration // appended under the shard mutex by the loop
	done := make(chan struct{})
	nodes := make([]cpNode, alarms)
	s.mu.Lock()
	for i := range nodes {
		n := &nodes[i]
		n.owner.Store(s)
		n.timer.fire = func() {
			seen = append(seen, n.Now())
			if len(seen) == alarms {
				close(done)
			}
		}
		s.wheel.Schedule(&n.timer, due)
	}
	s.mu.Unlock()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the cascade never fired")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	distinct := 1
	for i, at := range seen {
		if at < due {
			t.Fatalf("alarm %d saw Now() = %v, before its %v deadline", i, at, due)
		}
		if i > 0 && at < seen[i-1] {
			t.Fatalf("alarm %d saw Now() = %v after %v: the shard clock went backwards", i, at, seen[i-1])
		}
		if i > 0 && at != seen[i-1] {
			distinct++
		}
	}
	batch := f.cfg.Batch
	if want := (alarms+batch-1)/batch - 1; distinct < want {
		t.Errorf("%d alarms saw %d distinct instants, want >= %d (one tick per %d alarms)", alarms, distinct, want, batch)
	}
}

// cycleLog records what a control point's listener is told.
type cycleLog struct {
	mu     sync.Mutex
	cycles []core.CycleResult
	lostAt []time.Duration
}

func (l *cycleLog) DeviceAlive(_ ident.NodeID, res core.CycleResult) {
	l.mu.Lock()
	l.cycles = append(l.cycles, res)
	l.mu.Unlock()
}

func (l *cycleLog) DeviceLost(_ ident.NodeID, at time.Duration) {
	l.mu.Lock()
	l.lostAt = append(l.lostAt, at)
	l.mu.Unlock()
}

func (l *cycleLog) DeviceBye(ident.NodeID, time.Duration) {}

func (l *cycleLog) lost() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lostAt) == 0 {
		return 0, false
	}
	return l.lostAt[0], true
}

// silentAddr is a bound UDP socket nobody reads: probes to it vanish.
func silentAddr(t *testing.T) string {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.LocalAddr().String()
}

func addNaiveCP(t *testing.T, f *Fleet, id, device ident.NodeID, addr string, period time.Duration, lst core.Listener) *ControlPoint {
	t.Helper()
	policy, err := naive.NewPolicy(period)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := f.AddControlPoint(CPConfig{
		ID: id, Device: device, DeviceAddr: addr,
		Policy: policy, Listener: lst, Retransmit: fastRetransmit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestClockJumpsKeepTheBudget: a fleet clock that leaps forward between
// any two reads — so mid-batch as far as the shard can tell — never
// shows an engine a reply before its probe, and a silent device is
// declared lost no sooner than the full retransmit budget after its
// cycle began, all measured on the shard clock that stamped both ends.
func TestClockJumpsKeepTheBudget(t *testing.T) {
	f, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.shards {
		s.rec = trace.NewRing(1 << 16)
	}
	t.Cleanup(func() { f.Close() })
	// Every 2 ms of wall time the clock leaps 3 ms ahead: whichever read
	// comes next, wherever in a batch, sees the leap.
	wall := f.clock
	f.clock = func() time.Duration {
		w := wall()
		return w + w/(2*time.Millisecond)*(3*time.Millisecond)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	const devID ident.NodeID = 1
	dev, err := f.AddDevice(devID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(devID, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	var live cycleLog
	for i := 0; i < 8; i++ {
		addNaiveCP(t, f, ident.NodeID(100+i), devID, dev.Addr().String(), 5*time.Millisecond, &live)
	}
	const silentCP, silentDev ident.NodeID = 900, 2
	var silent cycleLog
	addNaiveCP(t, f, silentCP, silentDev, silentAddr(t), 5*time.Millisecond, &silent)

	var lostAt time.Duration
	waitFor(t, 5*time.Second, "the silent device's verdict", func() bool {
		var ok bool
		lostAt, ok = silent.lost()
		return ok
	})

	live.mu.Lock()
	if len(live.cycles) == 0 {
		t.Error("no cycle completed against the live device")
	}
	for _, res := range live.cycles {
		if res.RepliedAt < res.SentAt {
			t.Errorf("cycle replied at %v, before its probe was sent at %v", res.RepliedAt, res.SentAt)
		}
	}
	live.mu.Unlock()

	// The flight recorder stamps the cycle's first probe with the shard
	// clock; the verdict must trail it by the whole budget.
	budget := fastRetransmit().WorstCaseDetection()
	var began time.Duration
	found := false
	for _, events := range f.FlightSnapshot() {
		for _, e := range events {
			if e.CP == silentCP && e.Kind == trace.EvProbeSent && e.Attempt == 0 {
				began, found = e.At, true
			}
		}
	}
	if !found {
		t.Fatal("no EvProbeSent for the silent control point in the flight recorder")
	}
	if lostAt-began < budget {
		t.Errorf("lost %v after the cycle began at %v; the budget is %v", lostAt-began, began, budget)
	}
}

// TestClockFreshOnExternalEntry: a call into a shard from outside its
// loop stamps with a fresh read of the fleet clock, not with whatever
// the loop read before it parked.
func TestClockFreshOnExternalEntry(t *testing.T) {
	f, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	var clk atomic.Int64 // a clock that moves only when the test moves it
	clk.Store(int64(time.Second))
	f.clock = func() time.Duration { return time.Duration(clk.Load()) }
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	s := f.shards[0]

	const devID ident.NodeID = 1
	dev, err := f.AddDevice(devID, func(env core.Env) (core.Device, error) {
		return naive.NewDevice(devID, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	const cpID ident.NodeID = 7
	var log cycleLog
	cp := addNaiveCP(t, f, cpID, 2, silentAddr(t), time.Hour, &log)
	waitFor(t, 5*time.Second, "the silent device's verdict", func() bool {
		clk.Add(int64(50 * time.Millisecond))
		return cp.Stopped()
	})

	// The loop is parked (nothing is due for the sweep's 15 s); the clock
	// leaps an hour and only the external caller can notice.
	at := time.Duration(clk.Add(int64(time.Hour)))
	if err := cp.Restart(); err != nil {
		t.Fatal(err)
	}
	var restarted time.Duration
	for _, e := range f.FlightSnapshot()[0] {
		if e.CP == cpID && e.Kind == trace.EvProbeSent && e.Attempt == 0 {
			restarted = e.At
		}
	}
	if restarted != at {
		t.Errorf("Restart stamped its probe %v, want the fresh read %v", restarted, at)
	}

	at = time.Duration(clk.Add(int64(time.Hour)))
	dev.Bye()
	s.mu.Lock()
	now := s.now
	s.mu.Unlock()
	if now != at {
		t.Errorf("after Device.Bye the shard clock reads %v, want the fresh read %v", now, at)
	}
}

// TestClockSeamIsSingle keeps the wall clock behind one function: no
// non-test file of this package may call time.Now, time.Since or
// time.Until except wallClock itself and loop, which stamps no event.
func TestClockSeamIsSingle(t *testing.T) {
	allowed := map[string]int{
		// The reader: one Now for the epoch, one Since per read.
		"fleet.go:wallClock": 2,
		// loop converts its wait into the wall-clock instant
		// SetReadDeadline takes.
		"fleet.go:loop": 1,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn := "(package scope)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
					switch sel.Sel.Name {
					case "Now", "Since", "Until":
						site := name + ":" + fn
						got[site]++
						if got[site] > allowed[site] {
							t.Errorf("%s: time.%s in %s — read the shard clock (s.now), or the fleet clock if this measures the loop itself",
								fset.Position(sel.Pos()), sel.Sel.Name, fn)
						}
					}
				}
				return true
			})
		}
	}
	for site, want := range allowed {
		if got[site] != want {
			t.Errorf("allow-list entry %s expects %d wall-clock reads, found %d: keep the list exact", site, want, got[site])
		}
	}
}
