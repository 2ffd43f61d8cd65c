package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"presence/internal/core/protocol"
	"presence/internal/scenario"
	"presence/internal/simrun"
)

// sec converts seconds to a duration.
func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// staticSpec returns the Spec for a static-population world — the
// workhorse of the steady-state experiments. All experiment worlds are
// built through scenario Specs so every workload the suite measures is
// expressible in a scenario file.
func staticSpec(proto protocol.Name, cps int, spread, horizon time.Duration) *scenario.Spec {
	return &scenario.Spec{
		Name:     fmt.Sprintf("%s-static-%d", proto, cps),
		Protocol: proto,
		Horizon:  scenario.Dur(horizon),
		Population: scenario.Population{Static: &scenario.Static{
			CPs: cps, Spread: scenario.Dur(spread),
		}},
	}
}

// namedSpec fetches a registered scenario, overriding the horizon to the
// experiment's scale.
func namedSpec(name string, horizon time.Duration) *scenario.Spec {
	spec, ok := scenario.ByName(name)
	if !ok {
		panic(fmt.Sprintf("experiments: scenario %q not registered", name))
	}
	spec.Horizon = scenario.Dur(horizon)
	return spec
}

// minMax returns the extremes of a non-empty slice (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// formatFloats renders a slice compactly, sorted ascending.
func formatFloats(xs []float64) string {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	parts := make([]string, len(sorted))
	for i, x := range sorted {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sortCPsBySamples orders CP hosts by descending series sample count
// (ties by name for determinism).
func sortCPsBySamples(hosts []*simrun.CPHost) {
	sort.SliceStable(hosts, func(i, j int) bool {
		a, b := 0, 0
		if hosts[i].Freq != nil {
			a = hosts[i].Freq.Len()
		}
		if hosts[j].Freq != nil {
			b = hosts[j].Freq.Len()
		}
		if a != b {
			return a > b
		}
		return hosts[i].Name < hosts[j].Name
	})
}
