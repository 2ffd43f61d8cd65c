package experiments

import (
	"errors"
	"math"
	"testing"

	"presence/internal/core/protocol"
	"presence/internal/simrun"
)

// TestExperimentsDeterministicAcrossRuns: every registered experiment
// must report bit-identical metric values when re-run with the same seed
// — the regression guard for the zero-allocation kernel, the message
// pooling and the parallel replication runner, none of which may perturb
// simulation behaviour.
func TestExperimentsDeterministicAcrossRuns(t *testing.T) {
	run := func() map[string]uint64 {
		reps, err := RunAll(Options{Seed: 2005, Scale: ScaleShort})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]uint64)
		for _, r := range reps {
			for _, m := range r.Metrics {
				out[r.ID+"/"+m.Name] = math.Float64bits(m.Got)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("metric counts differ: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			t.Errorf("metric %s not reproducible: %016x vs %016x", k, va, vb)
		}
	}
}

// replicationJob runs one small DCPP churn world and returns its headline
// statistics — a miniature of what ext-seeds does per replication.
func replicationJob(seed uint64) ([2]float64, error) {
	w, err := simrun.NewWorld(simrun.Config{Protocol: protocol.DCPP, Seed: seed})
	if err != nil {
		return [2]float64{}, err
	}
	if err := w.StartChurn(simrun.DefaultUniformChurn()); err != nil {
		return [2]float64{}, err
	}
	w.Run(sec(60))
	load := w.DeviceLoad().Stats()
	return [2]float64{load.Mean(), load.Variance()}, nil
}

// TestReplicationsWorkerCountIndependence: the parallel runner's results
// must not depend on how many workers executed the jobs.
func TestReplicationsWorkerCountIndependence(t *testing.T) {
	run := func(workers int) [][2]float64 {
		res, err := ReplicationsWorkers(8, workers, func(i int) ([2]float64, error) {
			return replicationJob(3000 + uint64(100*i))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(1)
	for _, workers := range []int{2, 5, 8} {
		parallel := run(workers)
		for i := range sequential {
			for j := 0; j < 2; j++ {
				if math.Float64bits(sequential[i][j]) != math.Float64bits(parallel[i][j]) {
					t.Fatalf("workers=%d: replication %d stat %d = %g, sequential run got %g",
						workers, i, j, parallel[i][j], sequential[i][j])
				}
			}
		}
	}
}

// TestReplicationsFirstErrorByIndex: the reported error is the failing
// job with the smallest index, independent of scheduling.
func TestReplicationsFirstErrorByIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := ReplicationsWorkers(10, workers, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if got, want := err.Error(), "experiments: replication 3: boom"; got != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, got, want)
		}
	}
}

// TestReplicationsEmpty: zero jobs is a no-op, not a hang.
func TestReplicationsEmpty(t *testing.T) {
	res, err := Replications(0, func(int) (int, error) { return 0, nil })
	if err != nil || res != nil {
		t.Fatalf("Replications(0) = %v, %v; want nil, nil", res, err)
	}
}
