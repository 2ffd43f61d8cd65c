package stats

import "testing"

// transient builds a series with a decaying ramp followed by
// deterministic pseudo-noise around a steady mean.
func transient(rampLen, total int, start, steady float64) []float64 {
	out := make([]float64, total)
	x := uint64(9)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		noise := float64(x>>40)/float64(1<<24) - 0.5
		if i < rampLen {
			frac := float64(i) / float64(rampLen)
			out[i] = start + (steady-start)*frac + noise
		} else {
			out[i] = steady + noise
		}
	}
	return out
}

func TestMSERFindsRampEnd(t *testing.T) {
	series := transient(100, 1000, 50, 10)
	d := MSER(series)
	if d < 60 || d > 200 {
		t.Fatalf("MSER truncation = %d, want near the ramp end (≈100)", d)
	}
}

func TestMSEROnStationarySeriesIsSmall(t *testing.T) {
	series := transient(0, 1000, 10, 10)
	d := MSER(series)
	// No transient: truncation should stay near the start (allowing a
	// little noise-chasing).
	if d > 250 {
		t.Fatalf("MSER truncation = %d on stationary data", d)
	}
}

func TestMSERSmallInput(t *testing.T) {
	if d := MSER(nil); d != 0 {
		t.Fatalf("MSER(nil) = %d", d)
	}
	if d := MSER([]float64{1, 2, 3}); d != 0 {
		t.Fatalf("MSER(3 values) = %d", d)
	}
}

func TestMSERHalfSampleGuard(t *testing.T) {
	series := transient(100, 400, 50, 10)
	if d := MSER(series); d > 200 {
		t.Fatalf("MSER truncation %d exceeds half the sample", d)
	}
}

func TestMSERBatchedFallsBack(t *testing.T) {
	series := transient(10, 30, 50, 10)
	if got, want := MSERBatched(series, 1), MSER(series); got != want {
		t.Fatalf("m=1 fallback: %d != %d", got, want)
	}
	// Too few batches: falls back to plain MSER.
	short := transient(4, 12, 50, 10)
	if got, want := MSERBatched(short, 5), MSER(short); got != want {
		t.Fatalf("few-batch fallback: %d != %d", got, want)
	}
}
