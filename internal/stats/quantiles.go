package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantiles computes empirical quantiles of a data slice (nearest-rank
// method). The input is not modified. Probabilities outside (0,1] are
// rejected.
func Quantiles(data []float64, probs ...float64) ([]float64, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("stats: quantiles of empty data")
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	out := make([]float64, len(probs))
	for i, p := range probs {
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("stats: quantile probability %g outside (0,1]", p)
		}
		rank := int(math.Ceil(p*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		out[i] = sorted[rank]
	}
	return out, nil
}
