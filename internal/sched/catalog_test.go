package sched_test

import (
	"math"
	"testing"

	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// knownFlaps are the profiles whose mean RPTI sits within two PMU noise
// sds of the LLC-T bound, with why each is left failing. Their sampled
// class flips between periods, and Algorithm 1 moves VCPUs across nodes
// on each flip (ROADMAP.md item 14, class flapping at the LLC-T bound).
var knownFlaps = map[string]string{
	"mcf":         "20.90 is 0.90 above the bound, 0.99 needed",
	"redis-p2000": "19.20 classes as LLC-FI, not its declared LLC-T",
	"redis-p4000": "19.90 classes as LLC-FI, not its declared LLC-T",
	"redis-p6000": "20.60 is 0.60 above the bound, 0.88 needed",
}

// TestCatalogClassMargins checks every profile, at each load of its paper
// sweep (Fig. 6's 16–112 calls, Fig. 7's 2000–10000 connections): the
// Eq. 3 class of its mean RPTI under the stock vProbe bounds must be its
// TrueClass, with at least two sds of PMU noise between the RPTI and the
// nearest bound. The sd is the one SampleAll draws for a 1 s window at
// the profile's base CPI on the paper's machine, the smallest a sampling
// period sees, so the check is lenient.
func TestCatalogClassMargins(t *testing.T) {
	noise := xen.DefaultConfig().PMUNoiseFactor
	bounds := sched.NewVProbe().Analyzer.Bounds
	clockHz := numa.XeonE5620().ClockGHz() * 1e9
	var profiles []*workload.Profile
	for _, name := range workload.Names(workload.Catalog()) {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	for calls := 16; calls <= 112; calls += 16 {
		profiles = append(profiles, workload.Memcached(calls))
	}
	for conns := 2000; conns <= 10000; conns += 2000 {
		profiles = append(profiles, workload.Redis(conns))
	}
	for _, p := range profiles {
		rpti := p.AvgRPTI()
		sd := rpti * noise * math.Sqrt(1e9/(clockHz/p.BaseCPI))
		class := bounds.Classify(rpti)
		margin := math.Min(math.Abs(rpti-bounds.Low), math.Abs(rpti-bounds.High))
		ok := class.String() == p.TrueClass.String() && margin >= 2*sd
		reason, known := knownFlaps[p.Name]
		switch {
		case !ok && !known:
			t.Errorf("%s: RPTI %.2f classes as %v (declared %v), %.2f from a bound; two noise sds are %.2f",
				p.Name, rpti, class, p.TrueClass, margin, 2*sd)
		case ok && known:
			t.Errorf("%s now clears its bound by two noise sds: drop it from knownFlaps (%s)", p.Name, reason)
		case known:
			t.Logf("%s: known failure: %s", p.Name, reason)
		}
	}
}
