package experiments

import (
	"context"
	"fmt"

	"vprobe/internal/core"
	"vprobe/internal/mem"
	"vprobe/internal/metrics"
	"vprobe/internal/numa"
	"vprobe/internal/sched"
	"vprobe/internal/workload"
	"vprobe/internal/xen"
)

// ablationVariant is one configuration of the vProbe family under test.
type ablationVariant struct {
	Label string
	Make  func() xen.Policy
	// Migrate enables the §VI page-migration extension.
	Migrate bool
}

// runVariants executes the standard mix scenario for each variant over the
// option seeds and reports mean VM1 execution time and remote ratio. The
// (variant, seed) grid fans out across opts.Workers; rows keep the
// variants' declared order.
func runVariants(ctx context.Context, r *Result, variants []ablationVariant, opts Options) error {
	t := metrics.NewTable(r.Title, "variant", "exec(s)", "remote", "node-moves")
	cells, err := grid(ctx, opts.Workers, len(variants), opts.Repeats,
		func(ctx context.Context, v, rep int) ([]float64, error) {
			variant := variants[v]
			sc, err := standardScenario(numa.XeonE5620(), variant.Make(), opts.Seed+uint64(rep),
				mixApps(), mixApps(), opts.Scale)
			if err != nil {
				return nil, err
			}
			if variant.Migrate {
				sc.H.Migrator = mem.DefaultMigrator()
			}
			run, err := sc.run(ctx, opts.Horizon)
			if err != nil {
				return nil, fmt.Errorf("%s/seed%d: %w", variant.Label, rep, err)
			}
			opts.emitScenario(scenarioName("", variant.Label, rep), run.End)
			var moves float64
			for _, app := range run.Runs {
				moves += float64(app.NodeMoves)
			}
			return []float64{metrics.AvgExecSeconds(run.Runs), metrics.AvgRemoteRatio(run.Runs), moves}, nil
		})
	if err != nil {
		return err
	}
	for v, variant := range variants {
		m := means(cells[v])
		exec, remote, moves := m[0], m[1], m[2]
		r.Set("exec/"+variant.Label, "mix", exec)
		r.Set("remote/"+variant.Label, "mix", remote)
		t.AddRow(variant.Label, fmt.Sprintf("%.2f", exec),
			metrics.Pct(remote), fmt.Sprintf("%.0f", moves))
	}
	r.Tables = append(r.Tables, t)
	return nil
}

// runAblateAffinity isolates Eq. 1's value: vProbe with the memory node
// affinity information erased (partitioning balances counts but places
// VCPUs blindly) against full vProbe and Credit.
func runAblateAffinity(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "ablate-affinity", Title: "Ablation: memory node affinity (Eq. 1)"}
	variants := []ablationVariant{
		{Label: "credit", Make: func() xen.Policy { return sched.NewCredit() }},
		{Label: "vprobe", Make: func() xen.Policy { return sched.NewVProbe() }},
		{Label: "vprobe-no-affinity", Make: func() xen.Policy {
			p := sched.NewVProbe()
			p.DisableAffinity = true
			return p
		}},
	}
	if err := runVariants(ctx, r, variants, opts); err != nil {
		return nil, err
	}
	r.Tables[0].AddNote("without Eq. 1, partitioning balances LLC pressure but scatters memory")
	return r, nil
}

// runAblateDynamic evaluates the §VI dynamic-bounds extension.
func runAblateDynamic(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "ablate-dynamic", Title: "Extension: dynamic classification bounds (§VI)"}
	variants := []ablationVariant{
		{Label: "vprobe-static", Make: func() xen.Policy { return sched.NewVProbe() }},
		{Label: "vprobe-dynamic", Make: func() xen.Policy {
			p := sched.NewVProbe()
			p.Dynamic = core.NewDynamicBounds()
			return p
		}},
	}
	if err := runVariants(ctx, r, variants, opts); err != nil {
		return nil, err
	}
	r.Tables[0].AddNote("bounds adapt to the running pressure distribution instead of (3, 20)")
	return r, nil
}

// runAblatePageMigration evaluates the §VI page-migration extension
// combined with each scheduler.
func runAblatePageMigration(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "ablate-pagemig", Title: "Extension: page migration (§VI)"}
	variants := []ablationVariant{
		{Label: "credit", Make: func() xen.Policy { return sched.NewCredit() }},
		{Label: "credit+pagemig", Make: func() xen.Policy { return sched.NewCredit() }, Migrate: true},
		{Label: "vprobe", Make: func() xen.Policy { return sched.NewVProbe() }},
		{Label: "vprobe+pagemig", Make: func() xen.Policy { return sched.NewVProbe() }, Migrate: true},
	}
	if err := runVariants(ctx, r, variants, opts); err != nil {
		return nil, err
	}
	r.Tables[0].AddNote("pages lazily follow the VCPU; the paper expects this to help Credit most")
	return r, nil
}

// runFourNode exercises the N > 2 paths of Algorithms 1 and 2 on a
// synthetic 4-node machine.
func runFourNode(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.normalized()
	r := &Result{ID: "fournode", Title: "4-node topology (N > 2 algorithm paths)"}
	t := metrics.NewTable(r.Title, "scheduler", "exec(s)", "remote")
	apps := []*workload.Profile{
		workload.Soplex(), workload.Libquantum(), workload.MCF(), workload.Milc(),
		workload.LU(), workload.MG(), workload.SP(), workload.CG(),
	}
	kinds := []sched.Kind{sched.KindCredit, sched.KindVProbe, sched.KindLB}
	cells, err := grid(ctx, opts.Workers, len(kinds), opts.Repeats,
		func(ctx context.Context, v, rep int) ([]float64, error) {
			kind := kinds[v]
			cfg := xen.DefaultConfig()
			cfg.Seed = opts.Seed + uint64(rep)
			h := xen.New(numa.FourNode(), sched.MustNew(kind), cfg)
			vm1, err := h.CreateDomain("VM1", 32*1024, 16, mem.PolicyStripe)
			if err != nil {
				return nil, err
			}
			vm2, err := h.CreateDomain("VM2", 16*1024, 16, mem.PolicyFill)
			if err != nil {
				return nil, err
			}
			if err := attachScaled(h, vm1, pad(apps, len(vm1.VCPUs), workload.GuestIdle()), opts.Scale); err != nil {
				return nil, err
			}
			if err := attachScaled(h, vm2, pad(apps, len(vm2.VCPUs), workload.Hungry()), opts.Scale); err != nil {
				return nil, err
			}
			h.WatchDomains(vm1)
			end, err := h.RunContext(ctx, opts.Horizon)
			if err != nil {
				return nil, fmt.Errorf("%s/seed%d: %w", kind, rep, err)
			}
			opts.emitScenario(scenarioName("fournode", string(kind), rep), end)
			runs := metrics.CollectDomain(vm1, end)
			return []float64{metrics.AvgExecSeconds(runs), metrics.AvgRemoteRatio(runs)}, nil
		})
	if err != nil {
		return nil, err
	}
	for v, kind := range kinds {
		m := means(cells[v])
		exec, remote := m[0], m[1]
		r.Set("exec/"+string(kind), "fournode", exec)
		r.Set("remote/"+string(kind), "fournode", remote)
		t.AddRow(string(kind), fmt.Sprintf("%.2f", exec), metrics.Pct(remote))
	}
	t.AddNote("16 CPUs over 4 nodes; Algorithm 1 balances across all four")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func init() {
	register(&Experiment{
		ID:    "ablate-affinity",
		Title: "Affinity ablation",
		Paper: "DESIGN.md extension: isolates the value of Eq. 1 inside Algorithm 1",
		run:   runAblateAffinity,
	})
	register(&Experiment{
		ID:    "ablate-dynamic",
		Title: "Dynamic bounds extension",
		Paper: "Paper §VI future work: workload-adaptive classification bounds",
		run:   runAblateDynamic,
	})
	register(&Experiment{
		ID:    "ablate-pagemig",
		Title: "Page migration extension",
		Paper: "Paper §VI future work: combine VCPU scheduling with page migration",
		run:   runAblatePageMigration,
	})
	register(&Experiment{
		ID:    "fournode",
		Title: "Four-node topology",
		Paper: "DESIGN.md extension: N > 2 paths of Algorithms 1 and 2",
		run:   runFourNode,
	})
}
