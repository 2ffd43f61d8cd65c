package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestTimeWeightedConstantSignal(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 5)
	tw.Finish(sec(10))
	if tw.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", tw.Mean())
	}
	if tw.Variance() != 0 {
		t.Fatalf("variance = %g, want 0", tw.Variance())
	}
	if tw.Span() != 10 {
		t.Fatalf("span = %g, want 10", tw.Span())
	}
}

func TestTimeWeightedStepFunction(t *testing.T) {
	// Value 0 for 9 s, value 10 for 1 s: mean 1, population variance
	// E[x²]−mean² = (0²·0.9 + 10²·0.1) − 1 = 9.
	var tw TimeWeighted
	tw.Observe(0, 0)
	tw.Observe(sec(9), 10)
	tw.Finish(sec(10))
	if !almostEqual(tw.Mean(), 1, 1e-12) {
		t.Fatalf("mean = %g, want 1", tw.Mean())
	}
	if !almostEqual(tw.Variance(), 9, 1e-9) {
		t.Fatalf("variance = %g, want 9", tw.Variance())
	}
	if tw.Min() != 0 || tw.Max() != 10 {
		t.Fatalf("min/max = %g/%g", tw.Min(), tw.Max())
	}
}

func TestTimeWeightedWeightsByDuration(t *testing.T) {
	// Same values, different dwell times, different means.
	var a, b TimeWeighted
	a.Observe(0, 1)
	a.Observe(sec(1), 3)
	a.Finish(sec(2)) // 1 for 1s, 3 for 1s -> 2
	b.Observe(0, 1)
	b.Observe(sec(3), 3)
	b.Finish(sec(4)) // 1 for 3s, 3 for 1s -> 1.5
	if !almostEqual(a.Mean(), 2, 1e-12) || !almostEqual(b.Mean(), 1.5, 1e-12) {
		t.Fatalf("means = %g, %g; want 2, 1.5", a.Mean(), b.Mean())
	}
}

func TestTimeWeightedOutOfOrderPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(sec(5), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Observe must panic")
		}
	}()
	tw.Observe(sec(4), 2)
}

func TestTimeWeightedEmptyFinish(t *testing.T) {
	var tw TimeWeighted
	tw.Finish(sec(1)) // no-op, no panic
	if tw.Mean() != 0 || tw.Span() != 0 {
		t.Fatal("empty accumulator must stay empty")
	}
}

func TestBatchMeansConfigValidation(t *testing.T) {
	bad := []BatchMeansConfig{
		{BatchSize: 0, Level: 0.95, RelWidth: 0.1},
		{BatchSize: 10, Level: 0, RelWidth: 0.1},
		{BatchSize: 10, Level: 1, RelWidth: 0.1},
		{BatchSize: 10, Level: 0.95, RelWidth: 0},
		{BatchSize: 10, Level: 0.95, RelWidth: 0.1, MinBatches: 1},
	}
	for i, cfg := range bad {
		if _, err := NewBatchMeans(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := NewBatchMeans(BatchMeansConfig{BatchSize: 10, Level: 0.95, RelWidth: 0.1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBatchMeansConvergesOnIIDData(t *testing.T) {
	bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 50, Level: 0.95, RelWidth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic pseudo-noise around mean 10.
	x := uint64(1)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return 10 + float64(x>>40)/float64(1<<24) - 0.5
	}
	for i := 0; i < 100000 && !bm.Converged(); i++ {
		bm.Add(next())
	}
	if !bm.Converged() {
		t.Fatal("batch means did not converge on IID data")
	}
	r := bm.Result()
	if math.Abs(r.Mean-10) > 0.1 {
		t.Fatalf("mean = %g, want ≈10", r.Mean)
	}
	if r.HalfWidth/r.Mean >= 0.1 {
		t.Fatalf("relative half-width %g not below target", r.HalfWidth/r.Mean)
	}
}

func TestBatchMeansCICoversTrueMean(t *testing.T) {
	// Repeat small experiments; the 95% CI must cover the true mean in
	// roughly 95% of them. With 40 repetitions allow down to 33 hits.
	x := uint64(7)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>40) / float64(1<<24) // uniform [0,1), mean 0.5
	}
	covered := 0
	const reps = 40
	for rep := 0; rep < reps; rep++ {
		bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 25, Level: 0.95, RelWidth: 1e-9, MinBatches: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			bm.Add(next())
		}
		r := bm.Result()
		if math.Abs(r.Mean-0.5) <= r.HalfWidth {
			covered++
		}
	}
	if covered < 33 {
		t.Fatalf("95%% CI covered the true mean in only %d/%d runs", covered, reps)
	}
}

func TestBatchMeansNotConvergedEarly(t *testing.T) {
	bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 10, Level: 0.95, RelWidth: 0.1, MinBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // only 5 batches
		bm.Add(1.0)
	}
	if bm.Converged() {
		t.Fatal("converged before MinBatches")
	}
}

func TestBatchMeansLag1OnCorrelatedData(t *testing.T) {
	// A slow sawtooth is strongly positively correlated across small
	// batches.
	bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 10, Level: 0.95, RelWidth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		bm.Add(float64(i % 1000))
	}
	if lag1 := bm.Lag1Autocorrelation(); lag1 < 0.5 {
		t.Fatalf("sawtooth lag-1 autocorrelation = %g, expected strongly positive", lag1)
	}
}

func TestBatchMeansRebatch(t *testing.T) {
	bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 10, Level: 0.95, RelWidth: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		bm.Add(float64(i % 7))
	}
	before := bm.Mean()
	nb := bm.Batches()
	bm.Rebatch()
	if bm.Batches() != nb/2 {
		t.Fatalf("batches after rebatch = %d, want %d", bm.Batches(), nb/2)
	}
	if !almostEqual(bm.Mean(), before, 1e-9) {
		t.Fatalf("rebatch changed grand mean: %g -> %g", before, bm.Mean())
	}
}

func TestTimeSeriesBasics(t *testing.T) {
	s := NewTimeSeries("load")
	if s.Name() != "load" {
		t.Fatalf("Name() = %q", s.Name())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a last point")
	}
	s.Add(sec(1), 10)
	s.Add(sec(2), 20)
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.V != 20 {
		t.Fatalf("Last() = %v, %v", last, ok)
	}
	sum := s.Summary()
	if sum.Mean() != 15 {
		t.Fatalf("summary mean = %g, want 15", sum.Mean())
	}
}

func TestTimeSeriesWindow(t *testing.T) {
	s := NewTimeSeries("zoom").Window(sec(10), sec(20))
	for i := 0; i < 30; i++ {
		s.Add(sec(float64(i)), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("windowed series recorded %d points, want 10", s.Len())
	}
	for _, p := range s.Points() {
		if p.T < sec(10) || p.T >= sec(20) {
			t.Fatalf("point %v outside window", p)
		}
	}
}

func TestTimeSeriesDecimate(t *testing.T) {
	s := NewTimeSeries("dec").Decimate(3)
	for i := 0; i < 9; i++ {
		s.Add(sec(float64(i)), float64(i))
	}
	if s.Len() != 3 {
		t.Fatalf("decimated series recorded %d points, want 3", s.Len())
	}
}

func TestTimeSeriesMeanAfter(t *testing.T) {
	s := NewTimeSeries("m")
	s.Add(sec(1), 100)
	s.Add(sec(5), 2)
	s.Add(sec(6), 4)
	if got := s.MeanAfter(sec(5)); got != 3 {
		t.Fatalf("MeanAfter = %g, want 3", got)
	}
	if !math.IsNaN(s.MeanAfter(sec(100))) {
		t.Fatal("MeanAfter past the series end must be NaN")
	}
}

func TestTimeSeriesWriteDAT(t *testing.T) {
	s := NewTimeSeries("cp_01_freq")
	s.Add(sec(1.5), 0.5)
	s.Add(sec(2), 1.25)
	var buf strings.Builder
	if err := s.WriteDAT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# t(sec) cp_01_freq\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.500000 0.5\n") || !strings.Contains(out, "2.000000 1.25\n") {
		t.Fatalf("missing data rows: %q", out)
	}
}

func TestQuantiles(t *testing.T) {
	data := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	qs, err := Quantiles(data, 0.1, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 1 || qs[1] != 5 || qs[2] != 10 {
		t.Fatalf("quantiles = %v, want [1 5 10]", qs)
	}
	// Input must not be reordered.
	if data[0] != 9 {
		t.Fatal("Quantiles modified its input")
	}
	if _, err := Quantiles(nil, 0.5); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Quantiles(data, 0); err == nil {
		t.Error("probability 0 accepted")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("equal allocations: J = %g, want 1", got)
	}
	// One CP takes everything: J = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("monopolised allocations: J = %g, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("J(nil) = %g, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("J(zeros) = %g, want 0", got)
	}
	// The paper's SAPP pattern: 18 CPs at freq 0.1, 2 CPs at 2.5 — badly
	// unfair; DCPP gives everyone 0.5 — perfectly fair.
	sapp := make([]float64, 20)
	for i := range sapp {
		sapp[i] = 0.1
	}
	sapp[0], sapp[1] = 2.5, 2.5
	if j := JainIndex(sapp); j > 0.5 {
		t.Fatalf("SAPP-like allocation should be unfair, J = %g", j)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
}

func BenchmarkBatchMeansAdd(b *testing.B) {
	bm, err := NewBatchMeans(BatchMeansConfig{BatchSize: 100, Level: 0.95, RelWidth: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Add(float64(i & 1023))
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TQuantile(0.975, float64(10+i%100))
	}
}
