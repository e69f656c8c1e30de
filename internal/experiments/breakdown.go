package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// defaultBreakdownDesigns spans the cost structures the attribution can
// distinguish: the split baseline (pure SRAM probes + full walks), the
// same walks shortened by paging-structure caches, MIX (coalesced
// reach trades walk cycles for probe cycles), and the victim-level
// designs whose deep hits spend data-cache time instead of walk time.
var defaultBreakdownDesigns = []string{
	string(mmu.DesignSplit),
	string(mmu.DesignSplitPWC),
	string(mmu.DesignMix),
	string(mmu.DesignVictima),
	string(mmu.DesignMixVictima),
}

// breakdownMemhogFrac matches the hierarchy study's fragmentation point:
// the mixed 2MB/4KB regime where every cost category is live at once.
const breakdownMemhogFrac = hierarchyMemhogFrac

// Breakdown is the attribution experiment: per (design, workload) it
// reports cycles/access next to the percentage of charged cycles each
// ledger category received in Stats.Books — a stacked cost table that
// says *where* a design's cycles go, not just how many. A final
// per-workload row runs MIX under the scale's chaos rates with the
// oracle attached, so the chaos-retry column shows the re-translation
// tax injected faults add. The shares balance by construction: the MMU
// books every cycle in exactly one category, so they are shares of
// Stats.Cycles itself. The title keeps "(audited)" because the golden
// pins it byte for byte. One cell per workload.
func Breakdown(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Cycle breakdown: exact attribution of translation cycles by category (audited)",
		Columns: []string{"design", "workload", "cyc/acc", "l1%", "l2%", "deep%",
			"extra%", "victim%", "walk-full%", "walk-pwc%", "dirty%", "memo%", "retry%"},
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = defaultBreakdownDesigns
	}
	reg := s.registry()
	specs := make([]mmu.DesignSpec, len(designs))
	for i, d := range designs {
		spec, ok := reg.Lookup(d)
		if !ok {
			return nil, &mmu.UnknownDesignError{Name: d, Valid: reg.Names()}
		}
		specs[i] = spec
	}
	// The chaos row reuses MIX when the registry has it (custom -designs
	// lists still get their plain rows either way).
	chaosSpec, haveChaosRow := reg.Lookup(string(mmu.DesignMix))
	var cells []Cell
	for _, wl := range s.workloads() {
		wl := wl.Name
		cells = append(cells, Cell{
			Name: wl,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				spec, err := workload.ByName(wl)
				if err != nil {
					return nil, err
				}
				env, err := newNative(cs, osmm.THS, breakdownMemhogFrac, cs.Seed)
				if err != nil {
					return nil, err
				}
				var rows []Row
				for _, ds := range specs {
					row, err := breakdownRow(ctx, cs, env, spec, ds, ds.Name, nil, nil)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
				if haveChaosRow && cs.Chaos != (chaos.Rates{}) {
					in := chaos.NewInjector(cs.Seed, cs.Chaos)
					or := chaos.NewOracle(env.as.PageTable())
					row, err := breakdownRow(ctx, cs, env, spec, chaosSpec,
						chaosSpec.Name+"+chaos", in, or)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
				return rows, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "breakdown", t, cells)
	AppendRows(t, results)
	return t, err
}

// breakdownRow measures one design over the environment and renders the
// attribution shares of its cycle books.
func breakdownRow(ctx context.Context, cs Scale, env *nativeEnv, spec workload.Spec,
	ds mmu.DesignSpec, label string, in *chaos.Injector, or *chaos.Oracle) (Row, error) {
	caches := cachesim.DefaultHierarchy()
	m, err := ds.Build(env.as.PageTable(), env.as.PageTable(), caches, env.as.HandleFault)
	if err != nil {
		return nil, err
	}
	if in != nil {
		m.InjectFaults(in)
	}
	if or != nil {
		m.AttachOracle(or)
	}
	if cs.Telemetry != nil {
		m.AttachTelemetry(cs.Telemetry.With("workload", spec.Name))
	}
	stream := spec.Build(env.base, env.fp, simrand.New(cs.Seed))
	st, err := runStream(ctx, cs, m, stream)
	if err != nil {
		return nil, fmt.Errorf("%s/%s (seed %d): %w", spec.Name, label, cs.Seed, err)
	}
	if cs.Telemetry != nil {
		m.FlushTelemetry()
		env.flushTelemetry()
	}
	sh := perfmodel.AttributionShares(st.Books)
	return Row{label, spec.Name, st.CyclesPerAccess(),
		sh[ledger.L1Probe], sh[ledger.L2Probe], sh[ledger.DeepProbe],
		sh[ledger.ExtraProbe], sh[ledger.VictimProbe], sh[ledger.WalkFull],
		sh[ledger.WalkPWC], sh[ledger.DirtyAssist], sh[ledger.MemoReplay],
		sh[ledger.ChaosRetry]}, nil
}
