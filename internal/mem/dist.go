// Package mem models guest memory placement on NUMA nodes: per-application
// page-distribution vectors, a node-capacity-aware allocator with the
// placement policies relevant to Xen 4.0.1-era behaviour, and an optional
// page-migration mechanism (the paper's §VI future work).
//
// The model is deliberately aggregate: instead of tracking individual page
// frames, each application carries a distribution vector dist[n] = fraction
// of its pages resident on node n. That is exactly the granularity the
// paper's mechanisms consume (Eq. 1 only needs per-node access counts).
package mem

import (
	"fmt"
	"math"

	"vprobe/internal/numa"
)

// Dist is a page-distribution vector over NUMA nodes; entries are fractions
// of the owner's pages resident on each node and sum to 1.
type Dist []float64

// Uniform returns an even distribution over n nodes.
func Uniform(n int) Dist {
	d := make(Dist, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return d
}

// Concentrated returns a distribution with all pages on the given node.
func Concentrated(n int, node numa.NodeID) Dist {
	d := make(Dist, n)
	d[node] = 1
	return d
}

// Validate reports whether the vector is a proper distribution.
func (d Dist) Validate() error {
	if len(d) == 0 {
		return fmt.Errorf("mem: empty distribution")
	}
	var sum float64
	for i, f := range d {
		if f < -1e-9 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("mem: dist[%d] = %v invalid", i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("mem: distribution sums to %v, want 1", sum)
	}
	return nil
}

// CloneInto copies d into dst, reusing dst's storage when it has the
// capacity, and returns the result. dst may be nil (a fresh vector is
// allocated) but must not alias d unless identical.
//
//vprobe:hotpath
func (d Dist) CloneInto(dst Dist) Dist {
	if cap(dst) < len(d) {
		dst = make(Dist, len(d)) //vet:alloc only when the caller-owned buffer is too small; steady state passes pre-grown vectors
	}
	dst = dst[:len(d)]
	copy(dst, d)
	return dst
}

// Normalize rescales the vector in place to sum to 1; an all-zero vector
// becomes uniform.
func (d Dist) Normalize() {
	var sum float64
	for _, f := range d {
		if f > 0 {
			sum += f
		}
	}
	if sum <= 0 {
		for i := range d {
			d[i] = 1 / float64(len(d))
		}
		return
	}
	for i := range d {
		if d[i] < 0 {
			d[i] = 0
		}
		d[i] /= sum
	}
}

// LocalFraction returns the fraction of pages on the given node.
func (d Dist) LocalFraction(node numa.NodeID) float64 {
	if int(node) < 0 || int(node) >= len(d) {
		return 0
	}
	return d[node]
}

// RemoteFraction returns the fraction of pages not on the given node — the
// access-level remote ratio for a VCPU running there.
func (d Dist) RemoteFraction(node numa.NodeID) float64 {
	return 1 - d.LocalFraction(node)
}

// Home returns the node holding the plurality of pages (lowest id wins
// ties) — the ground-truth "memory node affinity" of Eq. 1.
func (d Dist) Home() numa.NodeID {
	best := 0
	for i := 1; i < len(d); i++ {
		if d[i] > d[best] {
			best = i
		}
	}
	return numa.NodeID(best)
}

// Blend returns w*a + (1-w)*b, renormalised. Used to mix a VM-wide layout
// with a first-touch concentration.
func Blend(a, b Dist, w float64) Dist {
	if len(a) != len(b) {
		panic("mem: Blend length mismatch")
	}
	w = math.Max(0, math.Min(1, w))
	out := make(Dist, len(a))
	for i := range out {
		out[i] = w*a[i] + (1-w)*b[i]
	}
	out.Normalize()
	return out
}

// ShiftToward moves fraction amount of pages from other nodes onto node,
// proportionally to where they currently are. It models page migration:
// amount is clamped to [0, 1].
func (d Dist) ShiftToward(node numa.NodeID, amount float64) {
	amount = math.Max(0, math.Min(1, amount))
	moved := 0.0
	for i := range d {
		if numa.NodeID(i) == node {
			continue
		}
		m := d[i] * amount
		d[i] -= m
		moved += m
	}
	d[node] += moved
}

// RemotePageRatio converts an access-level remote ratio r into the paper's
// Fig. 1 page-level metric: the probability that a page was touched from a
// remote node at least once during an analysis window, given k independent
// touches per page. ratio = 1 - (1-r)^k.
//
// On a two-node machine an uncorrelated schedule bounds r near 0.5, yet the
// paper reports >80% — consistent only with this page-level reading of
// "percentage of accessed pages belonging to each node"; see DESIGN.md.
func RemotePageRatio(r, touchesPerPage float64) float64 {
	r = math.Max(0, math.Min(1, r))
	if touchesPerPage < 1 {
		touchesPerPage = 1
	}
	return 1 - math.Pow(1-r, touchesPerPage)
}
