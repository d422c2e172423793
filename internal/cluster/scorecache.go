package cluster

// The per-(pipeline, host) score cache behind Cluster.place. Every
// built-in filter and score plugin reads the spec only through MemoryMB
// and VCPUs — names, profiles, priorities, and groups never enter a
// placement decision — so cached scores are shared per spec *class*:
// one (memMB, vcpus) shape. The generated mix draws from three classes,
// so the cache holds three heaps regardless of fleet size.
//
// Invalidation is generation-based: a host refresh that moves a placement
// input, or a gang member's reserve, bumps Host.gen and appends the host
// to every class's dirty list. A refresh that moves no input bumps
// nothing, because the view would score bit-identically. The next place()
// for a class drains its list — re-filters, re-scores, repairs the heap —
// and then reads the max. When a gang reserve ends, the touched hosts'
// generations go back to their saved values and settle rescores them at
// once, so no entry keeps a reserved view's score under a generation the
// host will reach again. Draining the whole list before reading is load-
// bearing: a stale entry *below* the top can rise above it (a departure
// frees memory, a busy host cools down), so checking only the top entry's
// generation would return stale winners.
//
// An entry holds Pipeline.score and the heap orders by feasibility, then
// by ranksAbove: the ranking Pipeline.Place and Explain use, defined once
// in plugin.go. So the heap max is always the host Place would pick, and
// place returns the same bare ErrNoHostFits when none fits; the per-host
// veto reasons come from Explain.

import "container/heap"

type scoreCache struct {
	c       *Cluster
	classes []*classScores
}

// classScores caches one spec class's per-host filter verdicts and
// weighted scores, arranged as a max-heap over host indices.
type classScores struct {
	memMB int64
	vcpus int
	// spec is the synthetic class representative handed to plugins; only
	// MemoryMB and VCPUs are set, per the class contract above.
	spec    VMSpec
	entries []scoreEntry // indexed by host
	order   []int32      // heap of host indices
	pos     []int32      // pos[host] is the host's position in order
	dirty   []int32      // hosts whose generation moved since last drain
	inDirty []bool
}

type scoreEntry struct {
	gen      uint64
	score    float64
	feasible bool
}

func newScoreCache(c *Cluster) *scoreCache { return &scoreCache{c: c} }

// invalidate marks one host stale in every class. Cheap by design: a
// host refresh must not pay per-class rescoring for classes that may
// never place again.
//
//vprobe:hotpath
func (sc *scoreCache) invalidate(host int) {
	for _, cs := range sc.classes {
		if !cs.inDirty[host] {
			cs.inDirty[host] = true
			//vet:alloc the dirty list's backing array grows to at most len(hosts) once, then is reused forever
			cs.dirty = append(cs.dirty, int32(host))
		}
	}
}

// settle rescores one host in every class whose entry was computed at a
// generation other than the host's current one, repairing each heap
// now rather than at the class's next drain.
//
//vprobe:hotpath
func (sc *scoreCache) settle(host int) {
	for _, cs := range sc.classes {
		cs.rescore(sc.c, host)
	}
}

// place returns the winning view, memory plan, and error for one spec,
// deciding exactly as Pipeline.Place over fresh views would, down to the
// bare ErrNoHostFits when no host fits. Callers that want the per-host
// veto reasons run Pipeline.Explain, as the span recorder does.
//
//vprobe:hotpath
func (sc *scoreCache) place(spec *VMSpec) (*HostView, MemPlan, error) {
	cs := sc.class(spec)
	if len(cs.dirty) > 0 {
		for _, h := range cs.dirty {
			cs.inDirty[h] = false
			cs.rescore(sc.c, int(h))
		}
		cs.dirty = cs.dirty[:0]
	}
	top := cs.order[0]
	if !cs.entries[top].feasible {
		return nil, MemPlan{}, ErrNoHostFits
	}
	hv := sc.c.viewSlice[top]
	return hv, sc.c.pipeline.memPlan(spec, hv), nil
}

// class finds or builds the cache for a spec's (memMB, vcpus) class. The
// class list stays tiny (the generator draws three shapes), so a linear
// scan beats any map — and keeps iteration order deterministic for free.
//
//vprobe:hotpath
func (sc *scoreCache) class(spec *VMSpec) *classScores {
	for _, cs := range sc.classes {
		if cs.memMB == spec.MemoryMB && cs.vcpus == spec.VCPUs {
			return cs
		}
	}
	hosts := len(sc.c.hosts)
	//vet:alloc building a class is a once-per-VM-shape event, amortized over the whole run
	cs := &classScores{
		memMB:   spec.MemoryMB,
		vcpus:   spec.VCPUs,
		spec:    VMSpec{Name: "class", MemoryMB: spec.MemoryMB, VCPUs: spec.VCPUs},
		entries: make([]scoreEntry, hosts), //vet:alloc once per VM shape
		order:   make([]int32, hosts),      //vet:alloc once per VM shape
		pos:     make([]int32, hosts),      //vet:alloc once per VM shape
		dirty:   make([]int32, 0, hosts),   //vet:alloc once per VM shape
		inDirty: make([]bool, hosts),       //vet:alloc once per VM shape
	}
	for h := 0; h < hosts; h++ {
		cs.order[h] = int32(h)
		cs.pos[h] = int32(h)
		cs.compute(sc.c, h)
	}
	heap.Init(cs)
	//vet:alloc class registration is once per VM shape
	sc.classes = append(sc.classes, cs)
	return cs
}

// compute refreshes one host's cached entry from its current view.
//
//vprobe:hotpath
func (cs *classScores) compute(c *Cluster, h int) {
	ho := c.hosts[h]
	e := &cs.entries[h]
	e.gen = ho.gen
	hv := &ho.view
	e.feasible = c.pipeline.fits(&cs.spec, hv)
	e.score = 0
	if e.feasible {
		e.score = c.pipeline.score(&cs.spec, hv)
	}
}

// rescore recomputes a dirtied host's entry and repairs its heap
// position. Hosts whose generation did not actually move (invalidated
// twice between drains) are skipped.
//
//vprobe:hotpath
func (cs *classScores) rescore(c *Cluster, h int) {
	if cs.entries[h].gen == c.hosts[h].gen {
		return
	}
	cs.compute(c, h)
	heap.Fix(cs, int(cs.pos[h]))
}

// Len, Less, Swap, Push, Pop implement heap.Interface over order. Less
// ranks i before j when i's host must win: feasible beats infeasible,
// then Pipeline.Place's order, ranksAbove.
func (cs *classScores) Len() int { return len(cs.order) }

func (cs *classScores) Less(i, j int) bool {
	a, b := cs.order[i], cs.order[j]
	ea, eb := &cs.entries[a], &cs.entries[b]
	if ea.feasible != eb.feasible {
		return ea.feasible
	}
	return ranksAbove(ea.score, int(a), eb.score, int(b))
}

func (cs *classScores) Swap(i, j int) {
	cs.order[i], cs.order[j] = cs.order[j], cs.order[i]
	cs.pos[cs.order[i]] = int32(i)
	cs.pos[cs.order[j]] = int32(j)
}

// Push and Pop are required by heap.Interface but never used: class heaps
// have fixed membership (every host, always), only priorities move.
func (cs *classScores) Push(any) { panic("cluster: classScores.Push: fixed membership") }
func (cs *classScores) Pop() any { panic("cluster: classScores.Pop: fixed membership") }
