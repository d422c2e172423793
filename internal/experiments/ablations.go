package experiments

import (
	"fmt"

	"vprobe/internal/metrics"
	"vprobe/internal/sched"
	"vprobe/internal/spec"
)

// ablationVariant is one configuration under test: the standard mix
// scenario under Kind, with tune (when set) adjusting its spec.
type ablationVariant struct {
	Label string
	Kind  sched.Kind
	tune  func(*spec.ScenarioV1)
}

// planVariants declares the standard mix scenario for each variant over
// the option seeds, variant-major, and assembles experiment id as one
// table of mean VM1 execution time, remote ratio and node moves, rows in
// the variants' declared order, annotated with note.
func planVariants(id, title, note string, variants []ablationVariant, opts Options) plan {
	var cells []Cell
	for _, variant := range variants {
		for rep := 0; rep < opts.Repeats; rep++ {
			s := standard("xeon-e5620", variant.Kind, opts.Seed+uint64(rep), mixApps(), mixApps(), opts)
			if variant.tune != nil {
				variant.tune(&s)
			}
			cells = append(cells, Cell{Name: scenarioName("", variant.Label, rep), Spec: s})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: id, Title: title}
		t := metrics.NewTable(title, "variant", "exec(s)", "remote", "node-moves")
		rows := make([][]float64, len(outs))
		for i, run := range as[ScenarioRun](outs) {
			var moves float64
			for _, app := range run.Runs {
				moves += float64(app.NodeMoves)
			}
			rows[i] = []float64{metrics.AvgExecSeconds(run.Runs), metrics.AvgRemoteRatio(run.Runs), moves}
		}
		for v, m := range variantMeans(rows, opts.Repeats) {
			exec, remote, moves := m[0], m[1], m[2]
			label := variants[v].Label
			r.Set("exec/"+label, "mix", exec)
			r.Set("remote/"+label, "mix", remote)
			t.AddRow(label, fmt.Sprintf("%.2f", exec),
				metrics.Pct(remote), fmt.Sprintf("%.0f", moves))
		}
		t.AddNote(note)
		r.Tables = append(r.Tables, t)
		return r
	}}
}

// planAblateAffinity isolates Eq. 1's value: vProbe with the memory node
// affinity information erased (partitioning balances counts but places
// VCPUs blindly) against full vProbe and Credit.
func planAblateAffinity(opts Options) plan {
	opts = opts.normalized()
	return planVariants("ablate-affinity", "Ablation: memory node affinity (Eq. 1)",
		"without Eq. 1, partitioning balances LLC pressure but scatters memory",
		[]ablationVariant{
			{Label: "credit", Kind: sched.KindCredit},
			{Label: "vprobe", Kind: sched.KindVProbe},
			{Label: "vprobe-no-affinity", Kind: sched.KindVProbe,
				tune: func(s *spec.ScenarioV1) { s.NoAffinity = true }},
		}, opts)
}

// planAblateDynamic evaluates the §VI dynamic-bounds extension.
func planAblateDynamic(opts Options) plan {
	opts = opts.normalized()
	return planVariants("ablate-dynamic", "Extension: dynamic classification bounds (§VI)",
		"bounds adapt to the running pressure distribution instead of (3, 20)",
		[]ablationVariant{
			{Label: "vprobe-static", Kind: sched.KindVProbe},
			{Label: "vprobe-dynamic", Kind: sched.KindVProbe,
				tune: func(s *spec.ScenarioV1) { s.DynamicBounds = true }},
		}, opts)
}

// planAblatePageMigration evaluates the §VI page-migration extension
// combined with each scheduler.
func planAblatePageMigration(opts Options) plan {
	opts = opts.normalized()
	migrate := func(s *spec.ScenarioV1) { s.PageMigration = true }
	return planVariants("ablate-pagemig", "Extension: page migration (§VI)",
		"pages lazily follow the VCPU; the paper expects this to help Credit most",
		[]ablationVariant{
			{Label: "credit", Kind: sched.KindCredit},
			{Label: "credit+pagemig", Kind: sched.KindCredit, tune: migrate},
			{Label: "vprobe", Kind: sched.KindVProbe},
			{Label: "vprobe+pagemig", Kind: sched.KindVProbe, tune: migrate},
		}, opts)
}

// fourNode is one cell of the 4-node experiment: VM1 runs apps beside a
// VM2 of the same apps padded with hungry loops, on the synthetic 4-node
// machine under kind, until VM1 finishes.
func fourNode(kind sched.Kind, seed uint64, apps []spec.AppV1, opts Options) spec.ScenarioV1 {
	return spec.ScenarioV1{
		Scheduler: string(kind),
		Topology:  "four-node",
		Seed:      seed,
		Scale:     opts.Scale,
		Horizon:   duration(opts.Horizon),
		VMs: []spec.VMV1{
			{Name: "VM1", MemoryMB: 32 * 1024, VCPUs: 16, Memory: "stripe", FillGuestIdle: true, Apps: apps},
			{Name: "VM2", MemoryMB: 16 * 1024, VCPUs: 16, Memory: "fill",
				Apps: append(append([]spec.AppV1(nil), apps...), named("hungry", 16-len(apps))...)},
		},
		Watch: []string{"VM1"},
	}
}

// planFourNode exercises the N > 2 paths of Algorithms 1 and 2 on a
// synthetic 4-node machine.
func planFourNode(opts Options) plan {
	opts = opts.normalized()
	apps := []spec.AppV1{
		{Name: "soplex"}, {Name: "libquantum"}, {Name: "mcf"}, {Name: "milc"},
		{Name: "lu"}, {Name: "mg"}, {Name: "sp"}, {Name: "cg"},
	}
	kinds := []sched.Kind{sched.KindCredit, sched.KindVProbe, sched.KindLB}
	var cells []Cell
	for _, kind := range kinds {
		for rep := 0; rep < opts.Repeats; rep++ {
			cells = append(cells, Cell{Name: scenarioName("fournode", string(kind), rep),
				Spec: fourNode(kind, opts.Seed+uint64(rep), apps, opts)})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fournode", Title: "4-node topology (N > 2 algorithm paths)"}
		t := metrics.NewTable(r.Title, "scheduler", "exec(s)", "remote")
		rows := make([][]float64, len(outs))
		for i, run := range as[ScenarioRun](outs) {
			rows[i] = []float64{metrics.AvgExecSeconds(run.Runs), metrics.AvgRemoteRatio(run.Runs)}
		}
		for v, m := range variantMeans(rows, opts.Repeats) {
			exec, remote := m[0], m[1]
			kind := string(kinds[v])
			r.Set("exec/"+kind, "fournode", exec)
			r.Set("remote/"+kind, "fournode", remote)
			t.AddRow(kind, fmt.Sprintf("%.2f", exec), metrics.Pct(remote))
		}
		t.AddNote("16 CPUs over 4 nodes; Algorithm 1 balances across all four")
		r.Tables = append(r.Tables, t)
		return r
	}}
}

func init() {
	register(&Experiment{
		ID:    "ablate-affinity",
		Title: "Affinity ablation",
		Paper: "DESIGN.md extension: isolates the value of Eq. 1 inside Algorithm 1",
		plan:  planAblateAffinity,
	})
	register(&Experiment{
		ID:    "ablate-dynamic",
		Title: "Dynamic bounds extension",
		Paper: "Paper §VI future work: workload-adaptive classification bounds",
		plan:  planAblateDynamic,
	})
	register(&Experiment{
		ID:    "ablate-pagemig",
		Title: "Page migration extension",
		Paper: "Paper §VI future work: combine VCPU scheduling with page migration",
		plan:  planAblatePageMigration,
	})
	register(&Experiment{
		ID:    "fournode",
		Title: "Four-node topology",
		Paper: "DESIGN.md extension: N > 2 paths of Algorithms 1 and 2",
		plan:  planFourNode,
	})
}
