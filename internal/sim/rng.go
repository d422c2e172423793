package sim

import "math"

// RNG is a small, fast, deterministic random number generator based on
// SplitMix64. It is not safe for concurrent use; each simulation owns one.
//
// The engine deliberately avoids math/rand so that the stream is stable
// across Go releases and so that sub-streams can be forked reproducibly.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed odd constant so the zero value is still usable.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Fork derives an independent generator from the current one, keyed by id.
// Forked streams are stable: the same parent seed and id always yield the
// same child stream regardless of how much the parent has been consumed
// before other forks.
func (r *RNG) Fork(id uint64) *RNG {
	// Mix the parent's seed-derived state with the id through one SplitMix
	// round so sibling forks are decorrelated.
	z := r.state + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pick returns a uniformly chosen index weighted by w; the weights must be
// non-negative and not all zero, otherwise Pick returns len(w)-1.
func (r *RNG) Pick(w []float64) int {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return len(w) - 1
	}
	t := r.Float64() * total
	for i, x := range w {
		if x <= 0 {
			continue
		}
		t -= x
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}
