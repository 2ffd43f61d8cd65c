package fleet

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"presence/internal/ident"
	"presence/internal/metrics"
)

// defValue reads a row's field out of c through whichever accessor the
// row has.
func defValue(d CounterDef, c *Counters) uint64 {
	if d.Count != nil {
		return *d.Count(c)
	}
	return uint64(*d.Level(c))
}

// setField stores v in Counters field i, counter or gauge.
func setField(c *Counters, i int, v uint64) {
	f := reflect.ValueOf(c).Elem().Field(i)
	if f.Kind() == reflect.Int {
		f.SetInt(int64(v))
	} else {
		f.SetUint(v)
	}
}

// TestCounterDefsCoverEveryField is what keeps "declared once" true: a
// Counters field without a row would be missing from /metrics and from
// every sum, and a second row would count it twice.
func TestCounterDefsCoverEveryField(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if len(CounterDefs) != typ.NumField() {
		t.Errorf("%d rows for %d Counters fields", len(CounterDefs), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		var c Counters
		setField(&c, i, 1)
		var rows []string
		for _, d := range CounterDefs {
			if defValue(d, &c) != 0 {
				rows = append(rows, d.Name)
			}
		}
		if len(rows) != 1 {
			t.Errorf("field %s is read by rows %v, want exactly one", typ.Field(i).Name, rows)
			continue
		}
		if gauge := typ.Field(i).Type.Kind() == reflect.Int; gauge == strings.HasSuffix(rows[0], "_total") {
			t.Errorf("field %s (%s) has row %s: counters end in _total, gauges do not", typ.Field(i).Name, typ.Field(i).Type, rows[0])
		}
	}
	seen := map[string]bool{}
	for _, d := range CounterDefs {
		if (d.Count == nil) == (d.Level == nil) {
			t.Errorf("row %s: exactly one of Count and Level must be set", d.Name)
		}
		if !metrics.ValidMetricName(d.Name) || !strings.HasPrefix(d.Name, "fleet_") {
			t.Errorf("row name %q is not a valid fleet_ family name", d.Name)
		}
		if d.Help == "" {
			t.Errorf("row %s has no help text", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("row name %s appears twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestCountersAddSumsEveryField fills two values with distinct primes,
// so a field Add skips, doubles or crosses with a neighbour shows, and
// pins that summing allocates nothing.
func TestCountersAddSumsEveryField(t *testing.T) {
	n := reflect.TypeOf(Counters{}).NumField()
	var primes []uint64
	for p := uint64(2); len(primes) < 2*n; p++ {
		isPrime := true
		for _, q := range primes {
			if p%q == 0 {
				isPrime = false
				break
			}
		}
		if isPrime {
			primes = append(primes, p)
		}
	}
	var a, b, want Counters
	for i := 0; i < n; i++ {
		setField(&a, i, primes[i])
		setField(&b, i, primes[n+i])
		setField(&want, i, primes[i]+primes[n+i])
	}
	a.Add(&b)
	if a != want {
		t.Fatalf("Add:\n got  %+v\n want %+v", a, want)
	}
	// Summing shards into a total must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { a.Add(&b) }); allocs != 0 {
		t.Fatalf("Add allocates %.1f times per call, want 0", allocs)
	}
}

// snapshotWaitBound is the longest one Snapshot call may take in
// TestSnapshotHammer. Snapshot waits for at most one critical section
// per shard — a timer cascade or a received burst — which on this
// fleet is microseconds of work. What the test measures on the two-core
// reference box is the scheduler, not the lock: the slowest of ~10⁶
// calls took 9 ms plain and 20–40 ms under -race, a preemption quantum
// or two for four spinning goroutines on two cores. The bound leaves
// that room and still fails a Snapshot queued behind a starved mutex.
const snapshotWaitBound = 250 * time.Millisecond

// TestSnapshotHammer is the measured replacement for "Snapshot is
// lock-free": four goroutines call it flat out for a second against a
// running loopback fleet. Every cumulative counter must be monotonic
// from one read to the next (each read is an exact copy under the
// shard mutex), the scrapers must not starve the loops into a false
// verdict, and no call may take longer than snapshotWaitBound.
func TestSnapshotHammer(t *testing.T) {
	f := startedFleet(t, Config{Shards: 2})
	dev := addDCPPDevice(t, f, 1, fastDCPP())
	lst := &countingListener{}
	for i := 0; i < 16; i++ {
		addDCPPCP(t, f, ident.NodeID(700+i), 1, dev.Addr().String(), lst)
	}
	waitFor(t, 3*time.Second, "first replies", func() bool { return f.Snapshot().Total.RepliesIn >= 16 })

	const scrapers = 4
	var wg sync.WaitGroup
	worst := make([]time.Duration, scrapers)
	calls := make([]int, scrapers)
	stop := time.Now().Add(time.Second)
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := f.Snapshot()
			for time.Now().Before(stop) {
				start := time.Now()
				cur := f.Snapshot()
				if d := time.Since(start); d > worst[g] {
					worst[g] = d
				}
				calls[g]++
				for i := range cur.Shards {
					for _, d := range CounterDefs {
						if d.Count != nil && *d.Count(&cur.Shards[i]) < *d.Count(&prev.Shards[i]) {
							t.Errorf("shard %d %s went backwards: %d after %d", i, d.Name,
								*d.Count(&cur.Shards[i]), *d.Count(&prev.Shards[i]))
							return
						}
					}
				}
				prev = cur
			}
		}(g)
	}
	wg.Wait()

	total, max := 0, time.Duration(0)
	for g := range worst {
		total += calls[g]
		if worst[g] > max {
			max = worst[g]
		}
	}
	t.Logf("%d Snapshot calls from %d goroutines in 1 s, slowest %v", total, scrapers, max)
	if max > snapshotWaitBound {
		t.Errorf("slowest Snapshot took %v, bound %v", max, snapshotWaitBound)
	}
	if _, lost, byes := lst.snapshot(); lost != 0 || byes != 0 {
		t.Errorf("verdicts under scrape load: lost=%d byes=%d", lost, byes)
	}
	if live := f.Snapshot().Total.LiveControlPoints; live != 16 {
		t.Errorf("%d of 16 control points still live after the hammer", live)
	}
}
