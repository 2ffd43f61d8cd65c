// Package rng provides deterministic, labelled random-number streams for
// the simulation.
//
// The paper's results were obtained with MÖBIUS simulation runs; faithful
// reproduction requires that a run be a pure function of its seed. The
// standard library's math/rand is seedable but its stream assignment is
// global and its algorithms have changed across Go versions. This package
// pins the generator (xoshiro256++ seeded via SplitMix64) so traces are
// reproducible across platforms and Go releases, and derives independent
// sub-streams per component from string labels, so adding a consumer never
// perturbs the draws seen by existing ones.
package rng

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Source is a xoshiro256++ pseudo-random generator. It is not safe for
// concurrent use; the simulation is single-threaded by design.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is the
// recommended seeding procedure for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSource returns a generator seeded from seed. Any seed, including 0,
// yields a full-quality stream (SplitMix64 expansion guarantees a nonzero
// state).
func NewSource(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		src.s[i] = splitmix64(&x)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s[0]+s.s[3], 23) + s.s[0]
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return r
}

// Rand wraps a Source with distribution helpers.
type Rand struct {
	src *Source
	// seed and path record how this stream was derived, for Fork and for
	// diagnostics.
	seed uint64
	path string
}

// New returns a root stream for the given seed.
func New(seed uint64) *Rand {
	return &Rand{src: NewSource(seed), seed: seed}
}

// Fork derives an independent, reproducible sub-stream identified by
// label. Forking is a pure function of (root seed, path of labels): the
// sub-stream does not consume randomness from, nor is it affected by,
// draws on the parent. Forking the same label twice returns streams with
// identical output — callers use distinct labels per component
// (e.g. "cp-3", "net-delay").
func (r *Rand) Fork(label string) *Rand {
	path := r.path + "/" + label
	h := fnv1a64(path)
	// Mix the root seed and the path hash through SplitMix64 so related
	// labels ("cp-1", "cp-2") land in unrelated states.
	x := r.seed ^ rotl(h, 31)
	derived := splitmix64(&x) ^ h
	return &Rand{src: NewSource(derived), seed: r.seed, path: path}
}

// Path returns the label path of this stream ("" for a root stream).
func (r *Rand) Path() string { return r.path }

func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform value in [0, 1) with 53-bit resolution.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n=%d", n))
	}
	// Lemire's unbiased bounded generation (rejection on the low word).
	bound := uint64(n)
	for {
		v := r.src.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// IntBetween returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) IntBetween(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntBetween with hi=%d < lo=%d", hi, lo))
	}
	return lo + r.Intn(hi-lo+1)
}

// Uniform returns a uniform value in [a, b). It panics if b < a.
func (r *Rand) Uniform(a, b float64) float64 {
	if b < a {
		panic(fmt.Sprintf("rng: Uniform with b=%g < a=%g", b, a))
	}
	return a + (b-a)*r.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp with non-positive rate=%g", rate))
	}
	// -log(1-U) with U in [0,1) avoids log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pareto returns a Pareto-distributed value with tail index shape and
// minimum 1: X = (1-U)^(-1/shape). Smaller shapes give heavier tails;
// shape <= 1 has infinite mean. It panics if shape <= 0.
func (r *Rand) Pareto(shape float64) float64 {
	if shape <= 0 {
		panic(fmt.Sprintf("rng: Pareto with non-positive shape=%g", shape))
	}
	return math.Pow(1-r.Float64(), -1/shape)
}

// LogNormal returns exp(mu + sigma·N) with N standard normal. It panics
// if sigma < 0.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic(fmt.Sprintf("rng: LogNormal with negative sigma=%g", sigma))
	}
	return math.Exp(mu + sigma*r.Normal())
}

// Normal returns a standard normal variate (Marsaglia polar method).
func (r *Rand) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Duration returns a uniform duration in [a, b). It panics if b < a.
func (r *Rand) Duration(a, b time.Duration) time.Duration {
	if b < a {
		panic(fmt.Sprintf("rng: Duration with b=%v < a=%v", b, a))
	}
	if a == b {
		return a
	}
	span := uint64(b - a)
	// Lemire again, on the nanosecond span.
	for {
		v := r.src.Uint64()
		hi, lo := bits.Mul64(v, span)
		if lo >= span || lo >= (-span)%span {
			return a + time.Duration(hi)
		}
	}
}

// ExpDuration returns an exponentially distributed duration with the given
// rate in events per second. Values overflowing time.Duration are clamped
// to math.MaxInt64 (≈292 years — beyond any simulation horizon here).
func (r *Rand) ExpDuration(ratePerSec float64) time.Duration {
	sec := r.Exp(ratePerSec)
	ns := sec * float64(time.Second)
	if ns >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice.
func Pick[T any](r *Rand, items []T) T {
	if len(items) == 0 {
		panic("rng: Pick from empty slice")
	}
	return items[r.Intn(len(items))]
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
