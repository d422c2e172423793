package sched

import (
	"fmt"
	"sort"

	"vprobe/internal/core"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// Kind names a scheduling policy for CLI/experiment selection.
type Kind string

// The five policies of the paper's evaluation (§V-A2).
const (
	KindCredit Kind = "credit"
	KindVProbe Kind = "vprobe"
	KindVCPUP  Kind = "vcpu-p"
	KindLB     Kind = "lb"
	KindBRM    Kind = "brm"
)

// Kinds returns all registered kinds in a stable order.
func Kinds() []Kind {
	ks := []Kind{KindCredit, KindVProbe, KindVCPUP, KindLB, KindBRM}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// PaperOrder returns the kinds in the order the paper's figures list them.
func PaperOrder() []Kind {
	return []Kind{KindCredit, KindVProbe, KindVCPUP, KindLB, KindBRM}
}

// New constructs a fresh policy of the given kind. Policies are stateful
// (analyzers, RNG use); never share one across simulations.
func New(kind Kind) (xen.Policy, error) {
	switch kind {
	case KindCredit:
		return NewCredit(), nil
	case KindVProbe:
		return NewVProbe(), nil
	case KindVCPUP:
		return NewVCPUP(), nil
	case KindLB:
		return NewLB(), nil
	case KindBRM:
		return NewBRM(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy kind %q (have %v)", kind, Kinds())
	}
}

// Settings are the vProbe-family knobs a run may vary. Zero values keep
// the stock setting; kinds outside the family ignore them.
type Settings struct {
	// SamplePeriod is the partitioning cadence.
	SamplePeriod sim.Duration
	// Bounds are Eq. 3's classification bounds.
	Bounds core.Bounds
	// NoAffinity erases Eq. 1's node affinity from Algorithm 1.
	NoAffinity bool
	// Dynamic enables the §VI adaptive-bounds extension.
	Dynamic bool
}

// Build constructs a fresh policy of the given kind with s applied. It is
// the one place a vProbe-family policy is built from its settings.
func Build(kind Kind, s Settings) (xen.Policy, error) {
	pol, err := New(kind)
	if err != nil {
		return nil, err
	}
	if v, ok := pol.(*VProbe); ok {
		if s.SamplePeriod > 0 {
			v.SamplePeriod = s.SamplePeriod
		}
		if s.Bounds != (core.Bounds{}) {
			v.Analyzer.Bounds = s.Bounds
		}
		v.DisableAffinity = s.NoAffinity
		if s.Dynamic {
			v.Dynamic = core.NewDynamicBounds()
		}
	}
	return pol, nil
}

// MustNew is New for known-good kinds.
func MustNew(kind Kind) xen.Policy {
	p, err := New(kind)
	if err != nil {
		panic(err)
	}
	return p
}
