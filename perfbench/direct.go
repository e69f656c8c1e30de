package main

import (
	"fmt"
	"runtime"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// directWorkload drives one reference stream straight through an MMU
// built from the design registry, timing the simulator's own layers.
type directWorkload struct {
	memory  uint64  // simulated physical memory
	hogFrac float64 // share of memory memhog pins before the footprint is mapped
	// hogUnmovable and hogScatter set the memhog's unmovable share and
	// the share of unmovable chunks scattered over movable memory; the
	// values are those the experiments apply at 50% load.
	hogUnmovable, hogScatter float64
	policy                   osmm.Policy
	footprint                uint64
	stream                   string // workload.Catalog name
	design                   string // mmu.DefaultRegistry name
	warmup                   int    // refs translated before the statistics reset
	measure                  int    // refs whose statistics are reported
}

// directWorkloads are the two workloads that run the MIX design on its own
// stream. superpage-coalesce exercises mirroring, coalescing and bundle
// promotion; basepage-walk runs the same design where every mapping is a
// 4KB singleton, so its time goes to the walker, cachesim and the
// generator instead.
var directWorkloads = map[string]directWorkload{
	"superpage-coalesce": {
		memory: 8 << 30, hogFrac: 0.5, hogUnmovable: 0.425, hogScatter: 0.4,
		policy: osmm.THS, footprint: 1 << 30,
		stream: "gups", design: "mix", warmup: 200 * batch, measure: 1000 * batch,
	},
	"basepage-walk": {
		memory: 8 << 30, hogFrac: 0, policy: osmm.BasePages, footprint: 2 << 30,
		stream: "mcf", design: "mix", warmup: 400 * batch, measure: 2000 * batch,
	},
}

// batch is the chunk size of the translate loop, the same 512 refs the
// experiment engine's runStream uses.
const batch = 512

// directEnv is one episode's simulated machine.
type directEnv struct {
	hog    *physmem.Memhog
	as     *osmm.AddressSpace
	pt     *pagetable.PageTable
	stream workload.Stream
	m      *mmu.MMU
	caches *cachesim.Hierarchy
	mix    []*core.MixTLB
}

// hogSeed fixes where memhog fragments memory. The fragmented machine is
// part of a workload's definition and the run's seed draws only the
// reference stream: different layouts change how far THS pages coalesce,
// which moves host time per reference by 30% between seeds, more than
// the regressions the benchmark is meant to catch.
const hogSeed = 42

// setup builds an episode's machine through the public constructors, each
// step a span of the traced run.
func (w directWorkload) setup(seed uint64, tr *tracer, parent int) (*directEnv, error) {
	env := &directEnv{}

	id := tr.open("physmem.build", parent)
	phys := physmem.NewBuddy(w.memory)
	env.hog = physmem.NewMemhog(phys, simrand.New(hogSeed))
	if w.hogFrac > 0 {
		env.hog.UnmovableFrac, env.hog.UnmovableScatterFrac = w.hogUnmovable, w.hogScatter
		env.hog.Run(w.hogFrac)
	}
	tr.close(id)

	id = tr.open("osmm.populate", parent)
	as, err := osmm.New(phys, osmm.Config{Policy: w.policy, Compactor: env.hog})
	if err != nil {
		return nil, err
	}
	base, err := as.Mmap(w.footprint)
	if err != nil {
		return nil, err
	}
	if _, err := as.Populate(base, w.footprint); err != nil {
		return nil, fmt.Errorf("populate %d bytes: %w", w.footprint, err)
	}
	env.as, env.pt = as, as.PageTable()
	tr.close(id)

	id = tr.open("workload.build", parent)
	spec, err := workload.ByName(w.stream)
	if err != nil {
		return nil, err
	}
	env.stream = spec.Build(base, w.footprint, simrand.New(seed))
	tr.close(id)

	id = tr.open("mmu.build", parent)
	env.caches = cachesim.DefaultHierarchy()
	cfg, err := mmu.DefaultRegistry().BuildConfig(w.design, env.pt)
	if err != nil {
		return nil, err
	}
	for i, l := range cfg.Levels {
		if mt, ok := l.TLB.(*core.MixTLB); ok {
			env.mix = append(env.mix, mt)
			if tr != nil {
				cfg.Levels[i].TLB = &tracedMix{m: mt, tr: tr}
			}
		}
	}
	env.m, err = mmu.New(cfg, env.pt, env.caches, as.HandleFault)
	if err != nil {
		return nil, err
	}
	tr.close(id)
	return env, nil
}

// episode is one setup plus one timed translation run.
type episode struct {
	setup, wall  int64   // ns
	batches      []int64 // ns of each timed batch, in order
	refs, failed uint64
	counts       []metric // simulated statistics, identical for every episode of a seed

	// Traced episodes only.
	layers   map[string]layerTotal
	setupMem runtimeDelta
	runMem   runtimeDelta
}

// runEpisode builds a fresh machine and translates warmup+measure refs.
// Only the stream generation and TranslateBatch calls are timed; the
// check of every result against the page table runs between them. A
// traced episode then replays its walks layer by layer.
func (w directWorkload) runEpisode(seed uint64, tr *tracer) (*episode, error) {
	runtime.GC() // start every episode from the same heap state
	ep := &episode{batches: make([]int64, 0, (w.warmup+w.measure)/batch+2)}
	first := tr.mark()
	mem0 := readRuntime(tr != nil)
	root := tr.open("episode", -1)
	setupID := tr.open("setup", root)
	start := now()
	env, err := w.setup(seed, tr, setupID)
	if err != nil {
		return nil, err
	}
	ep.setup = now() - start
	tr.close(setupID)
	mem1 := readRuntime(tr != nil)

	runID := tr.open("run", root)
	var (
		refs   [batch]workload.Ref
		reqs   [batch]tlb.Request
		out    [batch]mmu.Result
		walked []addr.V
	)
	translate := func(total int, keepWalks bool) {
		for done := 0; done < total; done += batch {
			n := min(batch, total-done)
			t0 := now()
			workload.FillBatch(env.stream, refs[:n])
			var t1 int64
			if tr != nil {
				t1 = now()
			}
			for i := 0; i < n; i++ {
				reqs[i] = tlb.Request{VA: refs[i].VA, Write: refs[i].Write, PC: refs[i].PC}
			}
			k := env.m.TranslateBatch(reqs[:n], out[:n])
			t2 := now()
			ep.wall += t2 - t0
			ep.batches = append(ep.batches, t2-t0)
			if tr != nil {
				tr.add("workload.gen", runID, t0, t1)
				tr.foldOps(tr.add("mmu.translate", runID, t1, t2))
			}
			ep.refs += uint64(n)
			ep.failed += uint64(n - k)
			for i := 0; i < k; i++ {
				if !correctTranslation(env.pt, reqs[i].VA, out[i]) {
					ep.failed++
				}
				if keepWalks && out[i].Walked {
					walked = append(walked, reqs[i].VA)
				}
			}
		}
	}
	translate(w.warmup, false)
	env.m.ResetStats()
	coreBase := mixStats(env.mix)
	memBase := env.caches.MemAccesses()
	translate(w.measure, tr != nil)
	tr.close(runID)
	mem2 := readRuntime(tr != nil)
	ep.counts = w.counts(env, coreBase, memBase)

	if tr != nil {
		replayID := tr.open("replay", root)
		replay(env.pt, walked, tr, replayID)
		tr.close(replayID)
		tr.close(root)
		ep.layers = tr.totals(first, len(tr.spans))
		ep.setupMem, ep.runMem = mem1.since(mem0), mem2.since(mem1)
		for k := coreOp(0); k < numCoreOps; k++ {
			ep.counts = append(ep.counts, metric{coreOpNames[k] + "_calls", "count", float64(ep.layers[coreOpNames[k]].calls)})
		}
	}
	return ep, nil
}

// typicalWall estimates an episode's timed phase from several episodes.
// Every episode of a run translates the same batches, so it sums, batch by
// batch, the median time of that batch across the episodes. A burst of
// other work on the host slows a few batches of one episode and drops out
// of the median; it would move a median of whole-episode times.
func typicalWall(eps []*episode) float64 {
	var total float64
	col := make([]float64, len(eps))
	for b := range eps[0].batches {
		for i, ep := range eps {
			col[i] = float64(ep.batches[b])
		}
		total += median(col)
	}
	return total
}

// correctTranslation checks one result against page-table ground truth:
// the physical address and the page size of the serving mapping.
func correctTranslation(pt *pagetable.PageTable, va addr.V, r mmu.Result) bool {
	if r.Faulted {
		return false
	}
	t, ok := pt.Lookup(va)
	return ok && r.PA == t.Translate(va) && r.Size == t.Size
}

// mixStats sums the counters of every MIX level.
func mixStats(levels []*core.MixTLB) core.Stats {
	var s core.Stats
	for _, l := range levels {
		ls := l.Stats()
		s.MirrorWrites += ls.MirrorWrites
		s.BundlesFilled += ls.BundlesFilled
		s.SmallFills += ls.SmallFills
		s.MembersPerFill += ls.MembersPerFill
	}
	return s
}

// counts gathers the episode's simulated statistics over the measured
// refs. They depend only on the seed, so every episode of a run and every
// run of a seed must report them bit for bit.
func (w directWorkload) counts(env *directEnv, coreBase core.Stats, memBase uint64) []metric {
	st := env.m.Stats()
	cs := mixStats(env.mix)
	bundles := cs.BundlesFilled - coreBase.BundlesFilled
	fills := bundles + cs.SmallFills - coreBase.SmallFills
	acc := float64(st.Accesses)
	return []metric{
		{"mmu.l1_hit_ratio", "ratio", float64(st.L1Hits) / acc},
		{"mmu.l2_hit_ratio", "ratio", float64(st.L2Hits) / acc},
		{"mmu.walks_per_1k", "count", 1000 * float64(st.Walks) / acc},
		{"mmu.walk_refs_per_walk", "count", ratio(st.WalkRefs, st.Walks)},
		{"mmu.sim_cycles_per_ref", "cycles", float64(st.Cycles) / acc},
		{"mmu.dirty_uops_per_1k", "count", 1000 * float64(st.DirtyMicroOps) / acc},
		{"core.members_per_bundle", "count", ratio(cs.MembersPerFill-coreBase.MembersPerFill, bundles)},
		{"core.mirror_writes_per_fill", "count", ratio(cs.MirrorWrites-coreBase.MirrorWrites, fills)},
		{"cachesim.mem_accesses_per_walk", "count", ratio(env.caches.MemAccesses()-memBase, st.Walks)},
		{"osmm.superpage_frac", "ratio", env.as.Stats().SuperpageFraction()},
		{"physmem.frames_held", "count", float64(env.hog.Held())},
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replay re-walks the measured run's walked VAs through the page table,
// then sends the walks' PTE addresses through a fresh cache hierarchy,
// timing each layer alone. It runs after the measured phase, in traced
// runs only.
func replay(pt *pagetable.PageTable, walked []addr.V, tr *tracer, parent int) {
	const chunk = 4096
	var res pagetable.WalkResult
	ptes := make([]addr.P, 0, chunk*pt.Depth())
	caches := cachesim.DefaultHierarchy()
	var walkAcc, cacheAcc opAcc
	for lo := 0; lo < len(walked); lo += chunk {
		vas := walked[lo:min(lo+chunk, len(walked))]
		s := now()
		for _, va := range vas {
			pt.WalkInto(va, &res)
		}
		walkAcc.add(s, now(), int64(len(vas)))
		ptes = ptes[:0]
		for _, va := range vas {
			pt.WalkInto(va, &res)
			ptes = append(ptes, res.Accesses...)
		}
		s = now()
		for _, pa := range ptes {
			caches.Access(pa)
		}
		cacheAcc.add(s, now(), int64(len(ptes)))
	}
	walkAcc.record(tr, "pagetable.walk", parent)
	cacheAcc.record(tr, "cachesim.access", parent)
}
