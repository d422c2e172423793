package cluster

import (
	"errors"
	"strings"
	"testing"

	"vprobe/internal/mem"
)

func view(index int, freePerNode []int64, totalMB int64, guestVCPUs, cap int) *HostView {
	return &HostView{
		Index:         index,
		Name:          "host" + string(rune('0'+index)),
		Nodes:         len(freePerNode),
		CPUs:          cap / 3,
		FreePerNodeMB: freePerNode,
		TotalMB:       totalMB,
		GuestVCPUs:    guestVCPUs,
		VCPUCap:       cap,
	}
}

func TestCapacityFilter(t *testing.T) {
	f := CapacityFilter{}
	spec := &VMSpec{Name: "vm", MemoryMB: 4096, VCPUs: 4}

	if err := f.Filter(spec, view(0, []int64{4096, 4096}, 24576, 0, 24)); err != nil {
		t.Fatalf("fitting VM filtered: %v", err)
	}
	if err := f.Filter(spec, view(0, []int64{1024, 1024}, 24576, 0, 24)); err == nil {
		t.Fatal("memory-starved host admitted")
	}
	if err := f.Filter(spec, view(0, []int64{8192, 8192}, 24576, 22, 24)); err == nil {
		t.Fatal("vcpu-overcommitted host admitted")
	}
}

func TestNUMAFitFilter(t *testing.T) {
	spec := &VMSpec{Name: "vm", MemoryMB: 6000, VCPUs: 4}

	// 4 nodes with 2000 MB each: total 8000 covers the VM, but no 2 nodes do.
	hv := view(0, []int64{2000, 2000, 2000, 2000}, 65536, 0, 48)
	if err := (CapacityFilter{}).Filter(spec, hv); err != nil {
		t.Fatalf("capacity filter should pass on total: %v", err)
	}
	if err := (NUMAFitFilter{MaxSplit: 2}).Filter(spec, hv); err == nil {
		t.Fatal("VM needing a 3-way split admitted with MaxSplit=2")
	}
	if err := (NUMAFitFilter{MaxSplit: 3}).Filter(spec, hv); err != nil {
		t.Fatalf("3-way split should fit with MaxSplit=3: %v", err)
	}

	// Uneven free memory: the two largest chunks are what counts.
	hv = view(0, []int64{500, 4000, 2500, 100}, 65536, 0, 48)
	if err := (NUMAFitFilter{MaxSplit: 2}).Filter(spec, hv); err != nil {
		t.Fatalf("4000+2500 >= 6000 should fit: %v", err)
	}
}

func TestScorerOrdering(t *testing.T) {
	spec := &VMSpec{Name: "vm", MemoryMB: 2048, VCPUs: 2}
	empty := view(0, []int64{12288, 12288}, 24576, 0, 24)
	full := view(1, []int64{2048, 1024}, 24576, 18, 24)

	if (LeastLoadedScore{}).Score(spec, empty) <= (LeastLoadedScore{}).Score(spec, full) {
		t.Fatal("least-loaded should prefer the empty host")
	}
	if (PackScore{}).Score(spec, full) <= (PackScore{}).Score(spec, empty) {
		t.Fatal("pack should prefer the full host")
	}

	oneNode := view(2, []int64{4096, 0}, 24576, 0, 24)
	split := view(3, []int64{1024, 1024}, 24576, 0, 24)
	if (NUMAFitScore{}).Score(spec, oneNode) <= (NUMAFitScore{}).Score(spec, split) {
		t.Fatal("numa-fit should prefer the single-node-fitting host")
	}

	calm := view(4, []int64{8192, 8192}, 24576, 4, 24)
	loud := view(5, []int64{8192, 8192}, 24576, 4, 24)
	loud.LLCPressure = 60
	if (LLCBalanceScore{}).Score(spec, calm) <= (LLCBalanceScore{}).Score(spec, loud) {
		t.Fatal("llc-balance should prefer the quiet host")
	}
}

func TestPipelinePlace(t *testing.T) {
	pl, err := NewPipeline("spread")
	if err != nil {
		t.Fatal(err)
	}
	spec := &VMSpec{Name: "vm", MemoryMB: 2048, VCPUs: 2}
	views := []*HostView{
		view(0, []int64{2048, 2048}, 24576, 18, 24),
		view(1, []int64{12288, 12288}, 24576, 0, 24),
	}
	hv, plan, err := pl.Place(spec, views)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Index != 1 {
		t.Fatalf("spread picked host %d, want the empty host 1", hv.Index)
	}
	if plan.Policy != mem.PolicyStripe {
		t.Fatalf("spread plan = %v, want stripe", plan.Policy)
	}
}

func TestPipelineTieBreak(t *testing.T) {
	pl := &Pipeline{
		Name:    "flat",
		Filters: []FilterPlugin{CapacityFilter{}},
		Scorers: nil, // all scores zero: pure tie
	}
	spec := &VMSpec{Name: "vm", MemoryMB: 1024, VCPUs: 1}
	views := []*HostView{
		view(2, []int64{8192, 8192}, 24576, 0, 24),
		view(0, []int64{8192, 8192}, 24576, 0, 24),
		view(1, []int64{8192, 8192}, 24576, 0, 24),
	}
	hv, _, err := pl.Place(spec, views)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Index != 0 {
		t.Fatalf("tie broke to host %d, want lowest index 0", hv.Index)
	}
	ex := pl.Explain(spec, views, 0)
	if ex.Feasible != 3 || len(ex.Candidates) != 3 || ex.Candidates[0].Host != hv.Name {
		t.Fatalf("Explain ranked %+v, want all three with Place's %s first", ex.Candidates, hv.Name)
	}

	// Every host vetoed: Place fails, and Explain finds nothing feasible.
	big := &VMSpec{Name: "vm", MemoryMB: 64 * 1024, VCPUs: 1}
	if _, _, err := pl.Place(big, views); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("all-vetoed err = %v, want ErrNoHostFits", err)
	}
	if ex := pl.Explain(big, views, 0); ex.Feasible != 0 || len(ex.Candidates) != 0 {
		t.Fatalf("all-vetoed Explain: %d feasible, %d candidates, want none", ex.Feasible, len(ex.Candidates))
	}
}

func TestPipelineNoHostFits(t *testing.T) {
	pl, err := NewPipeline("numa")
	if err != nil {
		t.Fatal(err)
	}
	spec := &VMSpec{Name: "vm", MemoryMB: 64 * 1024, VCPUs: 2}
	views := []*HostView{view(0, []int64{8192, 8192}, 24576, 0, 24)}
	_, _, err = pl.Place(spec, views)
	if !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("err = %v, want ErrNoHostFits", err)
	}
	// The diagnostic lives in Explain: the capacity filter's report
	// names the vetoed host and why.
	ex := pl.Explain(spec, views, 0)
	fr := ex.Filters[0]
	if fr.Plugin != "capacity" || len(fr.Vetoes) != 1 || fr.Vetoes[0].Host != "host0" ||
		!strings.Contains(fr.Vetoes[0].Reason, "MB free") {
		t.Fatalf("capacity filter report = %+v, want host0 vetoed for memory", fr)
	}
}

// TestNUMAFitScoreZeroMemory is the NaN regression: a zero-memory spec on
// a host whose best node has zero free memory used to compute 0/0.
func TestNUMAFitScoreZeroMemory(t *testing.T) {
	spec := &VMSpec{Name: "vm", MemoryMB: 0, VCPUs: 1}
	drained := view(0, []int64{0, 0}, 24576, 0, 24)
	got := (NUMAFitScore{}).Score(spec, drained)
	if got != got { // NaN is the one value that != itself
		t.Fatal("zero-memory spec on a drained host scores NaN")
	}
	if got != 60 {
		t.Fatalf("zero-memory fit on a drained host scores %v, want 60", got)
	}
	// And the guard must not change scores where bestFree > 0.
	roomy := view(1, []int64{4096, 1024}, 24576, 0, 24)
	if got := (NUMAFitScore{}).Score(spec, roomy); got != 100 {
		t.Fatalf("zero-memory spec with full headroom scores %v, want 100", got)
	}
}

// TestNUMAFitFilterSplitEdges pins the MaxSplit edge cases: a split wider
// than the host degrades to summing every node, and a non-positive split
// normalizes to 1.
func TestNUMAFitFilterSplitEdges(t *testing.T) {
	hv := view(0, []int64{2000, 2000, 2000, 2000}, 65536, 0, 48)
	spec := &VMSpec{Name: "vm", MemoryMB: 8000, VCPUs: 4}

	// MaxSplit 16 on a 4-node host: all 8000 MB are available.
	if err := (NUMAFitFilter{MaxSplit: 16}).Filter(spec, hv); err != nil {
		t.Fatalf("split wider than the host should sum all nodes: %v", err)
	}
	if err := (NUMAFitFilter{MaxSplit: 16}).Filter(
		&VMSpec{Name: "vm", MemoryMB: 8001, VCPUs: 4}, hv); err == nil {
		t.Fatal("8001 MB admitted against 8000 MB of total free")
	}

	// MaxSplit <= 0 normalizes to 1: only the best node counts.
	small := &VMSpec{Name: "vm", MemoryMB: 2000, VCPUs: 2}
	big := &VMSpec{Name: "vm", MemoryMB: 2001, VCPUs: 2}
	for _, split := range []int{0, -3} {
		f := NUMAFitFilter{MaxSplit: split}
		if err := f.Filter(small, hv); err != nil {
			t.Fatalf("MaxSplit=%d should admit a single-node fit: %v", split, err)
		}
		if err := f.Filter(big, hv); err == nil {
			t.Fatalf("MaxSplit=%d admitted a VM larger than any node", split)
		}
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := Policies()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered policies, have %v", names)
	}
	for _, n := range names {
		pl, err := NewPipeline(n)
		if err != nil {
			t.Fatalf("NewPipeline(%q): %v", n, err)
		}
		if pl.Name != n || len(pl.Filters) == 0 {
			t.Fatalf("policy %q malformed: %+v", n, pl)
		}
	}
	if _, err := NewPipeline("roulette"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
