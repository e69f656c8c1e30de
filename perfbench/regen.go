package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"mixtlb/internal/experiments"
	"mixtlb/internal/mmu"
)

// regenExperiments are the figures figure-regen regenerates: together
// they reach the layers the direct workloads skip — per-design stream
// rebuilds and virt 2D walks (fig14), the gpu model (fig16), ledger, pwc
// and victim designs (breakdown) and smp shootdowns (invalidation).
var regenExperiments = []string{"fig14", "fig16", "breakdown", "invalidation"}

// goldenDir holds the committed QuickScale tables, relative to the
// repository root the benchmark runs from.
const goldenDir = "internal/experiments/testdata/golden"

// regenPlan is figure-regen's set-up: the validated scale, the resolved
// experiments and the golden tables they must reproduce.
type regenPlan struct {
	scale   experiments.Scale
	exps    []experiments.Experiment
	goldens []string
	log     io.Writer // where a failed table is reported
}

// setupRegen validates a QuickScale run on one worker and loads the
// goldens. The experiments build every environment inside their cells,
// so this is all the set-up figure-regen has.
func setupRegen(names []string, dir string, log io.Writer) (*regenPlan, error) {
	s := experiments.QuickScale()
	s.Jobs = 1
	s.Registry = mmu.DefaultRegistry()
	for _, spec := range s.Registry.Specs() {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	for _, check := range []func() error{s.ValidateWorkloads, s.ValidateISA, s.ValidateDesigns} {
		if err := check(); err != nil {
			return nil, err
		}
	}
	p := &regenPlan{scale: s, log: log}
	for _, name := range names {
		e, err := experiments.ByName(name)
		if err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", name, err)
		}
		p.exps = append(p.exps, e)
		p.goldens = append(p.goldens, string(golden))
	}
	return p, nil
}

// regenResult is one regeneration of every planned table.
type regenResult struct {
	wall   int64                  // ns, all experiments
	perExp []int64                // ns per experiment, in plan order
	failed int                    // tables that differ from their golden or whose run failed
	cells  []experiments.CellTime // traced runs only
	alloc  runtimeDelta           // traced runs only
}

// run regenerates every table and byte-compares it with its golden,
// rendered exactly as the golden test renders it. A traced run also
// collects the engine's per-cell times through Scale.Bench.
func (p *regenPlan) run(ctx context.Context, tr *tracer) (*regenResult, error) {
	runtime.GC()
	res := &regenResult{}
	root := tr.open("regen", -1)
	mem := readRuntime(tr != nil)
	for i, e := range p.exps {
		s := p.scale
		var bench *experiments.BenchLog
		if tr != nil {
			bench = experiments.NewBenchLog(1)
			s.Bench = bench
		}
		id := tr.open("experiments."+e.Name, root)
		t0 := now()
		tbl, err := e.Run(ctx, s)
		d := now() - t0
		tr.close(id)
		res.wall += d
		res.perExp = append(res.perExp, d)
		if err != nil || "# "+tbl.Title+"\n"+tbl.CSV() != p.goldens[i] {
			res.failed++
			if err != nil {
				fmt.Fprintf(p.log, "perfbench: %s: %v\n", e.Name, err)
			} else {
				fmt.Fprintf(p.log, "perfbench: %s: table differs from its golden\n", e.Name)
			}
		}
		if bench != nil {
			cells, err := benchCells(bench)
			if err != nil {
				return nil, err
			}
			res.cells = append(res.cells, cells...)
			acc := opAcc{calls: int64(len(cells)), first: t0, last: t0 + d}
			for _, c := range cells {
				acc.busy += int64(c.Seconds * 1e9)
			}
			acc.record(tr, "experiments.cell", id)
		}
	}
	tr.close(root)
	res.alloc = readRuntime(tr != nil).since(mem)
	return res, nil
}

// benchCells reads the per-cell timings a BenchLog recorded.
func benchCells(b *experiments.BenchLog) ([]experiments.CellTime, error) {
	data, err := b.JSON()
	if err != nil {
		return nil, err
	}
	var rep struct {
		Cells []experiments.CellTime `json:"cells"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench log: %w", err)
	}
	return rep.Cells, nil
}
