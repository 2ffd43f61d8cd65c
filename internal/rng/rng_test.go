package rng

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestReproducible(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	zero := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("seed-0 stream produced %d zero draws in 100", zero)
	}
}

func TestForkReproducible(t *testing.T) {
	a := New(99).Fork("net")
	b := New(99).Fork("net")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal fork paths diverged at draw %d", i)
		}
	}
}

func TestForkIndependentOfParentDraws(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	p2.Uint64() // consume from one parent only
	a, b := p1.Fork("x"), p2.Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("fork output depends on parent draw position")
	}
}

func TestForkLabelsDiffer(t *testing.T) {
	root := New(7)
	a, b := root.Fork("cp-1"), root.Fork("cp-2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling forks produced %d identical draws", same)
	}
}

func TestForkPath(t *testing.T) {
	r := New(1).Fork("a").Fork("b")
	if r.Path() != "/a/b" {
		t.Fatalf("Path() = %q, want %q", r.Path(), "/a/b")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ≈0.5", mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(5)
	const n, buckets = 60000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		v := r.Intn(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn(%d) = %d out of range", buckets, v)
		}
		counts[v]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates more than 5%% from %g", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	r := New(6)
	sawLo, sawHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.IntBetween(1, 60)
		if v < 1 || v > 60 {
			t.Fatalf("IntBetween(1,60) = %d out of range", v)
		}
		if v == 1 {
			sawLo = true
		}
		if v == 60 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatalf("bounds not reached: lo=%v hi=%v", sawLo, sawHi)
	}
	if got := r.IntBetween(5, 5); got != 5 {
		t.Fatalf("IntBetween(5,5) = %d, want 5", got)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(8)
	const n = 200000
	const rate = 0.05 // the paper's churn rate; mean 20
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp produced negative value %g", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-20) > 0.5 {
		t.Fatalf("Exp(0.05) mean = %g, want ≈20", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %g", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean = %g, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance = %g, want ≈1", variance)
	}
}

func TestDurationRange(t *testing.T) {
	r := New(12)
	lo, hi := 100*time.Microsecond, 500*time.Microsecond
	for i := 0; i < 10000; i++ {
		d := r.Duration(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("Duration = %v out of [%v,%v)", d, lo, hi)
		}
	}
	if d := r.Duration(time.Second, time.Second); d != time.Second {
		t.Fatalf("degenerate Duration = %v, want 1s", d)
	}
}

func TestExpDurationMean(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += r.ExpDuration(2.0) // mean 0.5 s
	}
	mean := sum.Seconds() / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("ExpDuration(2) mean = %gs, want ≈0.5s", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(15)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Intn never leaves [0, n) and IntBetween never leaves [lo, hi].
func TestPropertyBounds(t *testing.T) {
	r := New(17)
	f := func(n uint16, off int16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		if v < 0 || v >= bound {
			return false
		}
		lo := int(off)
		hi := lo + bound
		w := r.IntBetween(lo, hi)
		return w >= lo && w <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: forked streams with equal paths are bitwise-identical
// regardless of interleaved parent usage.
func TestPropertyForkDeterminism(t *testing.T) {
	f := func(seed uint64, label string, burn uint8) bool {
		p1, p2 := New(seed), New(seed)
		for i := 0; i < int(burn); i++ {
			p1.Uint64()
		}
		a, b := p1.Fork(label), p2.Fork(label)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExpDuration(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.ExpDuration(0.05)
	}
}

func BenchmarkFork(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Fork("cp")
	}
}

func TestParetoTailAndMinimum(t *testing.T) {
	r := New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Pareto(3)
		if x < 1 {
			t.Fatalf("Pareto draw %g below the minimum 1", x)
		}
		sum += x
	}
	// E[X] = shape/(shape-1) = 1.5 for shape 3.
	if mean := sum / n; mean < 1.45 || mean > 1.55 {
		t.Fatalf("Pareto(3) mean = %g, want ≈1.5", mean)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Pareto(0) did not panic")
			}
		}()
		r.Pareto(0)
	}()
}

func TestLogNormalMedian(t *testing.T) {
	r := New(8)
	const n = 100000
	mu := math.Log(30)
	var below int
	for i := 0; i < n; i++ {
		x := r.LogNormal(mu, 1.5)
		if x <= 0 {
			t.Fatalf("LogNormal draw %g not positive", x)
		}
		if x < 30 {
			below++
		}
	}
	// The median of exp(mu + sigma·N) is exp(mu) = 30.
	if frac := float64(below) / n; frac < 0.48 || frac > 0.52 {
		t.Fatalf("fraction below the median = %g, want ≈0.5", frac)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("LogNormal with negative sigma did not panic")
			}
		}()
		r.LogNormal(0, -1)
	}()
}
