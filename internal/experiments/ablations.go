package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/sim"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// ablationVariant is one configuration of the vProbe family under test.
type ablationVariant struct {
	Label  string
	Policy policySpec
	// Migrate enables the §VI page-migration extension.
	Migrate bool
}

// planVariants declares the standard mix scenario for each variant over
// the option seeds, variant-major, and assembles experiment id as one
// table of mean VM1 execution time, remote ratio and node moves, rows in
// the variants' declared order, annotated with note.
func planVariants(id, title, note string, variants []ablationVariant, opts Options) plan {
	top := numa.XeonE5620()
	var cells []cell
	for _, variant := range variants {
		for rep := 0; rep < opts.Repeats; rep++ {
			cells = append(cells, cell{name: scenarioName("", variant.Label, rep), spec: standardSpec{
				Topology: topology{top}, Policy: variant.Policy, Migrate: variant.Migrate,
				Seed: opts.Seed + uint64(rep), Scale: opts.Scale, Horizon: opts.Horizon,
				VM1: mixApps(), VM2: mixApps(),
			}})
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
	noAffinity := stockPolicy(sched.KindVProbe)
	noAffinity.NoAffinity = true
	return planVariants("ablate-affinity", "Ablation: memory node affinity (Eq. 1)",
		"without Eq. 1, partitioning balances LLC pressure but scatters memory",
		[]ablationVariant{
			{Label: "credit", Policy: stockPolicy(sched.KindCredit)},
			{Label: "vprobe", Policy: stockPolicy(sched.KindVProbe)},
			{Label: "vprobe-no-affinity", Policy: noAffinity},
		}, opts)
}

// planAblateDynamic evaluates the §VI dynamic-bounds extension.
func planAblateDynamic(opts Options) plan {
	opts = opts.normalized()
	dynamic := stockPolicy(sched.KindVProbe)
	dynamic.Dynamic = true
	return planVariants("ablate-dynamic", "Extension: dynamic classification bounds (§VI)",
		"bounds adapt to the running pressure distribution instead of (3, 20)",
		[]ablationVariant{
			{Label: "vprobe-static", Policy: stockPolicy(sched.KindVProbe)},
			{Label: "vprobe-dynamic", Policy: dynamic},
		}, opts)
}

// planAblatePageMigration evaluates the §VI page-migration extension
// combined with each scheduler.
func planAblatePageMigration(opts Options) plan {
	opts = opts.normalized()
	credit, vprobe := stockPolicy(sched.KindCredit), stockPolicy(sched.KindVProbe)
	return planVariants("ablate-pagemig", "Extension: page migration (§VI)",
		"pages lazily follow the VCPU; the paper expects this to help Credit most",
		[]ablationVariant{
			{Label: "credit", Policy: credit},
			{Label: "credit+pagemig", Policy: credit, Migrate: true},
			{Label: "vprobe", Policy: vprobe},
			{Label: "vprobe+pagemig", Policy: vprobe, Migrate: true},
		}, opts)
}

// fourNodeSpec is one cell of the 4-node experiment: VM1 runs Apps beside
// a VM2 of the same apps padded with hungry loops, on the synthetic
// 4-node machine under Kind. Its output is VM1's mean execution time and
// remote ratio.
type fourNodeSpec struct {
	Kind    sched.Kind
	Seed    uint64
	Scale   float64
	Horizon sim.Duration
	Apps    []*workload.Profile
}

func (s fourNodeSpec) run(ctx context.Context) (any, sim.Time, error) {
	cfg := xen.DefaultConfig()
	cfg.Seed = s.Seed
	pol, err := sched.New(s.Kind)
	if err != nil {
		return nil, 0, err
	}
	h := xen.New(numa.FourNode(), pol, cfg)
	vm1, err := h.CreateDomain("VM1", 32*1024, 16, mem.PolicyStripe)
	if err != nil {
		return nil, 0, err
	}
	vm2, err := h.CreateDomain("VM2", 16*1024, 16, mem.PolicyFill)
	if err != nil {
		return nil, 0, err
	}
	if err := attachScaled(h, vm1, pad(s.Apps, len(vm1.VCPUs), workload.GuestIdle()), s.Scale); err != nil {
		return nil, 0, err
	}
	if err := attachScaled(h, vm2, pad(s.Apps, len(vm2.VCPUs), workload.Hungry()), s.Scale); err != nil {
		return nil, 0, err
	}
	h.WatchDomains(vm1)
	end, err := h.RunContext(ctx, s.Horizon)
	if err != nil {
		return nil, 0, err
	}
	runs := metrics.CollectDomain(vm1, end)
	return []float64{metrics.AvgExecSeconds(runs), metrics.AvgRemoteRatio(runs)}, end, nil
}

// cost is VM1's expected run time on all 16 PCPUs.
func (s fourNodeSpec) cost() float64 {
	top := numa.FourNode()
	return float64(top.NumCPUs()) * runSeconds(top, s.Apps, s.Scale, s.Horizon)
}

// planFourNode exercises the N > 2 paths of Algorithms 1 and 2 on a
// synthetic 4-node machine.
func planFourNode(opts Options) plan {
	opts = opts.normalized()
	apps := []*workload.Profile{
		workload.Soplex(), workload.Libquantum(), workload.MCF(), workload.Milc(),
		workload.LU(), workload.MG(), workload.SP(), workload.CG(),
	}
	kinds := []sched.Kind{sched.KindCredit, sched.KindVProbe, sched.KindLB}
	var cells []cell
	for _, kind := range kinds {
		for rep := 0; rep < opts.Repeats; rep++ {
			cells = append(cells, cell{name: scenarioName("fournode", string(kind), rep), spec: fourNodeSpec{
				Kind: kind, Seed: opts.Seed + uint64(rep), Scale: opts.Scale, Horizon: opts.Horizon, Apps: apps,
			}})
		}
	}
	return plan{cells: cells, assemble: func(outs []any) *Result {
		r := &Result{ID: "fournode", Title: "4-node topology (N > 2 algorithm paths)"}
		t := metrics.NewTable(r.Title, "scheduler", "exec(s)", "remote")
		for v, m := range variantMeans(as[[]float64](outs), opts.Repeats) {
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
