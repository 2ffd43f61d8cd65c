package stats

// Warmup (initial-transient) detection for steady-state output
// analysis. The paper's batch-means estimates presuppose that the
// initial transient has been discarded; MSER gives a principled,
// data-driven truncation point to validate the fixed warmups used by
// the experiments.

// MSER returns the truncation index d minimising the marginal standard
// error rule statistic
//
//	MSER(d) = Var(x[d:]) / (n − d)
//
// over 0 ≤ d ≤ n/2 (the classic half-sample guard against degenerate
// truncation at the very end). It returns 0 for fewer than 4
// observations.
func MSER(values []float64) int {
	n := len(values)
	if n < 4 {
		return 0
	}
	// Suffix sums let each candidate evaluate in O(1).
	suffixSum := make([]float64, n+1)
	suffixSq := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffixSum[i] = suffixSum[i+1] + values[i]
		suffixSq[i] = suffixSq[i+1] + values[i]*values[i]
	}
	best, bestStat := 0, 0.0
	for d := 0; d <= n/2; d++ {
		m := float64(n - d)
		mean := suffixSum[d] / m
		variance := suffixSq[d]/m - mean*mean
		if variance < 0 {
			variance = 0
		}
		stat := variance / m
		if d == 0 || stat < bestStat {
			best, bestStat = d, stat
		}
	}
	return best
}

// MSERBatched applies MSER to non-overlapping batch means of size m and
// returns the truncation index scaled back to raw observations. m < 2
// falls back to plain MSER.
func MSERBatched(values []float64, m int) int {
	if m < 2 {
		return MSER(values)
	}
	nb := len(values) / m
	if nb < 4 {
		return MSER(values)
	}
	batches := make([]float64, nb)
	for i := 0; i < nb; i++ {
		var sum float64
		for j := 0; j < m; j++ {
			sum += values[i*m+j]
		}
		batches[i] = sum / float64(m)
	}
	return MSER(batches) * m
}
