// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 7) from the simulator: OS page-allocation
// characterization (Figures 9-13), performance comparisons against split
// and multi-indexing TLBs (Figures 1, 14, 15), energy studies (Figures
// 16, 17), COLT combinations (Figure 18), and the ablations the design
// discussion calls out (superpage index bits, set-count scaling,
// duplicate handling).
//
// Every experiment takes a Scale so the same code serves the full CLI
// runs and the fast `go test -bench` harness; absolute numbers shift with
// scale but the qualitative shapes (who wins, by roughly what factor) are
// stable.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/core"
	"mixtlb/internal/isa"
	"mixtlb/internal/journal"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/telemetry"
	"mixtlb/internal/tlb"
	"mixtlb/internal/virt"
	"mixtlb/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	// MemoryBytes is system physical memory (the paper's machine: 80GB).
	MemoryBytes uint64
	// FootprintBytes is the workload footprint (the paper: ~80GB).
	FootprintBytes uint64
	// WarmupRefs and MeasureRefs bound each simulation.
	WarmupRefs  uint64
	MeasureRefs uint64
	// GPUCores sizes the GPU model.
	GPUCores int
	// Workloads optionally restricts the CPU workload set (nil = all).
	Workloads []string
	// Designs optionally overrides the design set of experiments that
	// iterate the registry (currently "hierarchy"; nil = their defaults).
	Designs []string
	// Registry resolves design names for registry-driven experiments.
	// Nil falls back to mmu.DefaultRegistry() (the builtin designs); the
	// CLI installs a registry extended with -design-file specs.
	Registry *mmu.Registry
	// ISA names the translation architecture every native environment's
	// page table implements (an isa.Lookup name; empty = default x86-64,
	// reproducing pre-descriptor behaviour bit-for-bit). The xisa
	// experiment ignores it and sweeps its own descriptor set.
	ISA string
	// Seed drives all randomness.
	Seed uint64
	// Chaos configures fault injection for the chaos experiment (zero
	// rates disable injection entirely).
	Chaos chaos.Rates
	// Progress, when set (by RunSafe), receives partial tables as rows
	// complete, so timeouts and panics still report finished work.
	Progress *TablePublisher
	// Jobs bounds the worker pool each experiment's cell grid runs on
	// (0 = GOMAXPROCS). Results are byte-identical at any value.
	Jobs int
	// Cell, when non-empty, restricts the run to grid cells whose name
	// contains it — the reproduce-one-cell knob from failure lines.
	Cell string
	// Bench, when set, receives per-cell wall-clock timings.
	Bench *BenchLog
	// Telemetry, when set, is the run's observability sink: the engine
	// scopes it per cell (exp/cell labels, worker trace tid) and the
	// simulation layers export metrics and spans into it. Nil (the
	// default) disables all instrumentation at zero cost. Simulation
	// results never depend on it.
	Telemetry *telemetry.Collector
	// ProgressFn, when set, receives live engine progress (cells
	// done/total, ETA) as cells complete. Calls are serialized. Like
	// Telemetry, it observes the run without influencing it.
	ProgressFn func(ProgressEvent)
	// Journal, when set, is the run's crash-safe checkpoint log: the
	// engine replays cells already recorded there (skipping their
	// simulation) and appends each newly completed cell. Results are
	// byte-identical to an uninterrupted run because replayed rows carry
	// their exact values and seeds are pure functions of cell identity.
	// Nil disables checkpointing at zero cost.
	Journal *journal.Journal
	// MaxRetries is how many times the engine re-runs a cell that fails
	// with a transient error (0 = fail on first error). Each retry waits
	// a capped, seeded exponential backoff — see RetryDelay.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry
	// (0 = defaultRetryBackoff). Tests set it to ~1ms.
	RetryBackoff time.Duration
	// CellDeadline, when positive, arms a per-cell watchdog: a cell
	// exceeding it is canceled (abandoned if it ignores cancellation),
	// reported as a *StuckCellError, and requeued under the retry policy.
	CellDeadline time.Duration
	// FailSoft, when true, turns cells that exhaust their retries into
	// FailedCell records (and FAILED table markers) instead of aborting
	// the grid. The failed cell's result slot stays nil, exactly like a
	// cell excluded by -cell filtering.
	FailSoft bool
	// Failures, when set, collects the run's FailedCell records (the
	// CLI's exit code and the table's FAILED markers read it). Nil-safe.
	Failures *FailureLog
	// CellFault, when set, is consulted before each cell attempt; a
	// non-nil return fails the attempt with that error. It exists for
	// fault injection (tests, -inject-cell-failure) and observes only the
	// cell's identity, never simulation state.
	CellFault func(experiment, cell string) error
	// TailK, when positive, arms a bounded top-K tail flight recorder on
	// every runStream MMU: the K slowest translations of each cell's
	// measurement interval (VA, page size, serving level, walk depth,
	// charge trail) export as "tail" trace events through Telemetry.
	// Clamped to ledger.MaxTailK. Like Telemetry it is an observer:
	// tables are byte-identical with it on or off, so it is excluded
	// from Fingerprint.
	TailK int
}

// Fingerprint summarizes every Scale field that determines simulation
// results, plus the journal format version. A checkpoint journal is
// pinned to this string: resuming under a different memory size, seed,
// workload set, or chaos configuration is refused instead of silently
// mixing incompatible cells. Scheduling-only knobs (Jobs, Cell) and
// observers (Telemetry, Progress, Bench, ...) are deliberately excluded —
// they never change results.
func (s Scale) Fingerprint() string {
	isaName := s.ISA
	if isaName == "" {
		isaName = isa.DefaultName // "" and the explicit default are the same run
	}
	return fmt.Sprintf("mixtlb-journal-v%d mem=%d foot=%d warmup=%d measure=%d gpu=%d seed=%d workloads=[%s] designs=[%s] isa=%s chaos=%+v",
		journal.Version, s.MemoryBytes, s.FootprintBytes, s.WarmupRefs, s.MeasureRefs,
		s.GPUCores, s.Seed, strings.Join(s.Workloads, ","), strings.Join(s.Designs, ","), isaName, s.Chaos)
}

// DefaultScale is the CLI configuration: footprints far beyond TLB reach
// while keeping each figure's regeneration in minutes on a laptop.
func DefaultScale() Scale {
	return Scale{
		MemoryBytes:    8 << 30,
		FootprintBytes: 2 << 30,
		WarmupRefs:     300_000,
		MeasureRefs:    700_000,
		GPUCores:       8,
		Seed:           42,
		Chaos:          chaos.DefaultRates(),
	}
}

// QuickScale keeps everything small enough for unit tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		MemoryBytes:    1 << 30,
		FootprintBytes: 256 << 20,
		WarmupRefs:     30_000,
		MeasureRefs:    60_000,
		GPUCores:       4,
		Workloads:      []string{"mcf", "gups", "memcached"},
		Seed:           42,
		Chaos:          chaos.DefaultRates(),
	}
}

// registry resolves the scale's design registry.
func (s Scale) registry() *mmu.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return mmu.DefaultRegistry()
}

// workloads resolves the scale's workload set.
func (s Scale) workloads() []workload.Spec {
	all := workload.Catalog()
	if len(s.Workloads) == 0 {
		return all
	}
	var out []workload.Spec
	for _, name := range s.Workloads {
		for _, spec := range all {
			if spec.Name == name {
				out = append(out, spec)
			}
		}
	}
	return out
}

// nativeEnv is one native-CPU simulation environment: physical memory, an
// OS address space with a chosen page-size policy, an optional memhog.
type nativeEnv struct {
	phys *physmem.Buddy
	hog  *physmem.Memhog
	as   *osmm.AddressSpace
	base addr.V
	fp   uint64 // footprint actually mapped (capped under memory pressure)

	// telFlushed makes flushTelemetry idempotent: an environment is often
	// measured under several designs, but its OS/buddy/contiguity snapshot
	// must export exactly once.
	telFlushed bool
}

// flushTelemetry exports the environment's OS-layer snapshot (allocation
// counters, buddy fragmentation, contiguity histograms) at most once.
func (e *nativeEnv) flushTelemetry() {
	if e.telFlushed {
		return
	}
	e.telFlushed = true
	e.as.FlushTelemetry()
}

// newNative builds an environment: memhog fragments first (background
// load), then the address space is created (reserving hugetlbfs pools
// under that fragmentation) and the footprint is faulted in ascending
// order.
func newNative(s Scale, policy osmm.Policy, memhogFrac float64, seed uint64) (*nativeEnv, error) {
	phys := physmem.NewBuddy(s.MemoryBytes)
	hog := physmem.NewMemhog(phys, simrand.New(seed^0x9e37))
	// Heavy background load does not just consume memory: on long-loaded
	// systems, migratetype fallbacks let unmovable allocations pollute
	// movable pageblocks, which is what ultimately defeats compaction and
	// pushes the OS into the mixed / mostly-small-pages regimes of Fig 9.
	if memhogFrac >= 0.5 {
		hog.UnmovableFrac = 0.25 + (memhogFrac-0.4)*1.75
		if hog.UnmovableFrac > 0.95 {
			hog.UnmovableFrac = 0.95
		}
		hog.UnmovableScatterFrac = (memhogFrac - 0.4) * 4
		if hog.UnmovableScatterFrac > 1 {
			hog.UnmovableScatterFrac = 1
		}
	}
	if memhogFrac > 0 {
		hog.Run(memhogFrac)
	}
	// The workload takes whatever memory the hog left over (the paper's
	// machines run footprints the size of memory; this simulator cannot
	// swap, so populate stops gracefully at exhaustion and the stream
	// runs over what was mapped).
	fp := s.FootprintBytes
	if free := phys.FreeFrames() * addr.Size4K * 97 / 100; fp > free {
		fp = addr.AlignedDown(free, addr.Size2M)
	}
	cfg := osmm.Config{Policy: policy, Compactor: hog, ISA: s.ISA}
	switch policy {
	case osmm.Hugetlbfs2M, osmm.Hugetlbfs1G:
		cfg.PoolBytes = fp
	}
	as, err := osmm.New(phys, cfg)
	if err != nil {
		return nil, err
	}
	if s.Telemetry != nil {
		// Attach before Populate so demand-fault map counts are captured.
		as.AttachTelemetry(s.Telemetry)
		as.PageTable().AttachTelemetry(s.Telemetry)
	}
	base, err := as.Mmap(fp)
	if err != nil {
		return nil, err
	}
	mapped, err := as.Populate(base, fp)
	if err != nil {
		if mapped < 8*addr.Size2M {
			return nil, fmt.Errorf("populate: %w (only %d bytes fit)", err, mapped)
		}
		fp = addr.AlignedDown(mapped, addr.Size2M) // memory exhausted: run over what fit
	}
	return &nativeEnv{phys: phys, hog: hog, as: as, base: base, fp: fp}, nil
}

// buildMMU constructs a design's MMU over the environment with a fresh
// cache hierarchy.
func (e *nativeEnv) buildMMU(d mmu.Design) (*mmu.MMU, *cachesim.Hierarchy, error) {
	caches := cachesim.DefaultHierarchy()
	m, err := mmu.Build(d, e.as.PageTable(), e.as.PageTable(), caches, e.as.HandleFault)
	if err != nil {
		return nil, nil, err
	}
	return m, caches, nil
}

// mixMMU assembles a two-level MIX MMU with explicit level configs over
// the native environment.
func mixMMU(name string, l1cfg, l2cfg core.Config, env *nativeEnv, caches *cachesim.Hierarchy) (*mmu.MMU, error) {
	l1, err := core.New(l1cfg)
	if err != nil {
		return nil, err
	}
	l2, err := core.New(l2cfg)
	if err != nil {
		return nil, err
	}
	return mmu.New(mmu.Config{Name: name, Levels: mmu.L(l1, l2)},
		env.as.PageTable(), caches, env.as.HandleFault)
}

// ctxCheckStride is how many refs a stream loop simulates between
// cancellation checks: frequent enough that cancel latency stays in the
// low milliseconds, rare enough to be free.
const ctxCheckStride = 8192

// translateBatch is the chunk size of the batched simulation loop: large
// enough to amortize interface dispatch and the batch-call overhead, small
// enough that the three scratch arrays stay cache-resident. It divides
// ctxCheckStride so cancellation checks land on the same reference indices
// as the scalar loop did.
const translateBatch = 512

// runStream drives refs through an MMU: warmup, reset, measure. References
// are generated and translated in chunks (workload.FillBatch feeding
// mmu.TranslateBatch), which produces bit-identical statistics to the
// scalar loop while paying per-chunk instead of per-reference dispatch.
// The context is a cancellation checkpoint — a canceled grid stops
// mid-stream rather than finishing a multi-second simulation whose result
// will be discarded.
//
// When the scale arms the tail recorder (TailK), a ledger is attached
// before warmup and its recorder flushes after measurement. It observes
// without influencing: st is read before the flush.
func runStream(ctx context.Context, cs Scale, m *mmu.MMU, stream workload.Stream) (mmu.Stats, error) {
	warmup, measure := cs.WarmupRefs, cs.MeasureRefs
	var led *ledger.Ledger
	if cs.TailK > 0 {
		led = ledger.New(cs.TailK)
		m.AttachLedger(led)
	}
	var (
		refs [translateBatch]workload.Ref
		reqs [translateBatch]tlb.Request
		out  [translateBatch]mmu.Result
	)
	run := func(total uint64, faultFmt string) error {
		for done := uint64(0); done < total; {
			if done%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			n := uint64(len(refs))
			if rem := total - done; rem < n {
				n = rem
			}
			workload.FillBatch(stream, refs[:n])
			for i := uint64(0); i < n; i++ {
				reqs[i] = tlb.Request{VA: refs[i].VA, Write: refs[i].Write, PC: refs[i].PC}
			}
			k := m.TranslateBatch(reqs[:n], out[:n])
			if k > 0 && out[k-1].Faulted {
				return fmt.Errorf(faultFmt, refs[k-1].VA)
			}
			done += n
		}
		return nil
	}
	if err := run(warmup, "fault at %v during warmup"); err != nil {
		return mmu.Stats{}, err
	}
	m.ResetStats()
	if err := run(measure, "fault at %v"); err != nil {
		return mmu.Stats{}, err
	}
	st := m.Stats()
	if led != nil {
		flushTail(cs, m, led)
	}
	return st, nil
}

// flushTail exports a cell's K slowest translations as "tail" instant
// trace events: rank order, simulated-cycle stamp, and the merged charge
// trail. The records surface in the telemetry JSONL export and the
// /debug/tail endpoints; they never touch tables or goldens.
func flushTail(cs Scale, m *mmu.MMU, led *ledger.Ledger) {
	if cs.Telemetry == nil {
		return
	}
	for i, r := range led.Top() {
		served := "walk"
		switch {
		case r.Faulted:
			served = "fault"
		case r.HitLevel >= 0:
			served = fmt.Sprintf("L%d", r.HitLevel+1)
		}
		cs.Telemetry.Instant("tail", "slow_translation", r.Cycles,
			"design", m.Name(),
			"rank", strconv.Itoa(i),
			"va", fmt.Sprintf("0x%x", r.VA),
			"size", r.Size.String(),
			"served", served,
			"walk_refs", strconv.Itoa(int(r.WalkRefs)),
			"retries", strconv.Itoa(int(r.Retries)),
			"seq", strconv.FormatUint(r.Seq, 10),
			"trail", ledger.TrailString(r.Trail()))
	}
}

// measureNative runs one workload on one design in an environment,
// returning functional stats and the runtime estimate.
func measureNative(ctx context.Context, s Scale, env *nativeEnv, spec workload.Spec, d mmu.Design) (mmu.Stats, perfmodel.Estimate, *cachesim.Hierarchy, error) {
	m, caches, err := env.buildMMU(d)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, nil, err
	}
	if s.Telemetry != nil {
		m.AttachTelemetry(s.Telemetry.With("workload", spec.Name))
	}
	stream := spec.Build(env.base, env.fp, simrand.New(s.Seed))
	st, err := runStream(ctx, s, m, stream)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, nil, fmt.Errorf("%s/%s (seed %d): %w", spec.Name, d, s.Seed, err)
	}
	if s.Telemetry != nil {
		m.FlushTelemetry()
		env.flushTelemetry()
	}
	est := perfmodel.Default(spec.BaseCPI, spec.RefsPerInstr).Runtime(st)
	return st, est, caches, nil
}

// vmEnv is a consolidated virtualized environment.
type vmEnv struct {
	machine *virt.Machine
	vms     []*virt.VM
	bases   []addr.V
	fp      uint64
}

// newVirt consolidates `vms` guests on one host, each running memhog at
// guestHogFrac inside the VM (the Fig 10 methodology), with THS guests.
func newVirt(s Scale, vms int, guestHogFrac float64, seed uint64) (*vmEnv, error) {
	m := virt.NewMachine(s.MemoryBytes, simrand.New(seed^0x51))
	env := &vmEnv{machine: m}
	// Guests split the host memory as in Sec 7.1 (8 x 10GB on 80GB).
	guestBytes := s.MemoryBytes / uint64(vms)
	env.fp = guestBytes / 2
	for i := 0; i < vms; i++ {
		vm, err := m.AddVM(guestBytes, osmm.Config{Policy: osmm.THS}, simrand.New(seed+uint64(i)))
		if err != nil {
			return nil, err
		}
		if guestHogFrac > 0 {
			vm.GuestHog().Run(guestHogFrac)
		}
		base, err := vm.GuestAS().Mmap(env.fp)
		if err != nil {
			return nil, err
		}
		if _, err := vm.Populate(base, env.fp); err != nil {
			return nil, fmt.Errorf("VM %d populate: %w", i, err)
		}
		env.vms = append(env.vms, vm)
		env.bases = append(env.bases, base)
	}
	return env, nil
}

// measureVirt runs a workload inside VM 0 of the environment on a design.
func measureVirt(ctx context.Context, s Scale, env *vmEnv, spec workload.Spec, d mmu.Design) (mmu.Stats, perfmodel.Estimate, error) {
	vm := env.vms[0]
	caches := cachesim.DefaultHierarchy()
	m, err := mmu.Build(d, vm.Walker(), nil, caches, vm.HandleFault)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, err
	}
	if s.Telemetry != nil {
		m.AttachTelemetry(s.Telemetry.With("workload", spec.Name, "env", "virt"))
	}
	stream := spec.Build(env.bases[0], env.fp, simrand.New(s.Seed))
	st, err := runStream(ctx, s, m, stream)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, fmt.Errorf("%s/%s virt (seed %d): %w", spec.Name, d, s.Seed, err)
	}
	if s.Telemetry != nil {
		m.FlushTelemetry()
	}
	est := perfmodel.Default(spec.BaseCPI, spec.RefsPerInstr).Runtime(st)
	return st, est, nil
}

// Registry maps experiment names to their functions for the CLI.
type Experiment struct {
	Name string
	Desc string
	Run  func(context.Context, Scale) (*stats.Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "% runtime in address translation: split vs ideal across page-size policies", Figure1},
		{"fig9", "fraction of footprint in superpages vs memhog fragmentation", Figure9},
		{"fig10", "superpage fraction vs VM consolidation x memhog", Figure10},
		{"fig11", "average superpage contiguity vs memhog (2MB and 1GB)", Figure11},
		{"fig12", "superpage contiguity CDF, native CPU", Figure12},
		{"fig13", "superpage contiguity CDF, virtualized and GPU", Figure13},
		{"fig14", "% performance improvement of MIX vs split", Figure14},
		{"fig15l", "MIX improvement vs split as memhog varies", Figure15Left},
		{"fig15r", "overhead vs ideal TLB: split and MIX curves", Figure15Right},
		{"fig16", "performance-energy tradeoffs: skew+pred, rehash+pred, MIX", Figure16},
		{"fig17", "dynamic energy breakdown by TLB activity (GPU)", Figure17},
		{"fig18", "COLT, COLT++, MIX and MIX+COLT vs split", Figure18},
		{"ablation-index", "Sec 3 ablation: superpage index bits vs small-page index bits", AblationIndexBits},
		{"scaling", "Sec 7.2 scaling study: set counts up to 512", ScalingStudy},
		{"duplicates", "Sec 4.3 duplicate creation and elimination study", DuplicateStudy},
		{"invalidation", "Sec 4.4 invalidation study: shootdown refill traffic by design", InvalidationStudy},
		{"hierarchy", "registry designs compared: per-level hits, walk traffic, PWC effect", HierarchyStudy},
		{"reach", "coalesced SRAM reach (MIX) vs spilled cache reach (Victima) under fragmentation", ReachStudy},
		{"chaos", "fault injection: TLB/PTE corruption, lost IPIs, transient OOM — detection and recovery rates", ChaosStudy},
		{"breakdown", "cycle attribution: where each design's translation cycles go, conservation-audited", Breakdown},
		{"xisa", "cross-ISA study: headline designs over radix depth (LA57, Sv48) and contiguity encodings (SVNAPOT, ARM64 contig)", CrossISAStudy},
	}
}

// Names lists every experiment name in paper order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return names
}

// UnknownExperimentError reports a requested experiment that does not
// exist, carrying the valid names so callers (the CLI) can print them
// instead of silently running nothing.
type UnknownExperimentError struct {
	Name  string
	Valid []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("experiments: unknown experiment %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// UnknownWorkloadError reports a requested workload missing from the
// catalog. Before this check, a typo in -workloads made every experiment
// iterate over an empty workload set and print empty tables.
type UnknownWorkloadError struct {
	Name  string
	Valid []string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("experiments: unknown workload %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// ValidateWorkloads checks that every name in Scale.Workloads resolves in
// the workload catalog, returning an *UnknownWorkloadError for the first
// one that does not.
func (s Scale) ValidateWorkloads() error {
	all := workload.Catalog()
	for _, name := range s.Workloads {
		found := false
		for _, spec := range all {
			if spec.Name == name {
				found = true
				break
			}
		}
		if !found {
			valid := make([]string, len(all))
			for i, spec := range all {
				valid[i] = spec.Name
			}
			return &UnknownWorkloadError{Name: name, Valid: valid}
		}
	}
	return nil
}

// ValidateISA checks that Scale.ISA names a known descriptor, returning
// the typed *isa.UnknownISAError (listing every valid name) for a typo'd
// -isa flag before any environment is built.
func (s Scale) ValidateISA() error {
	_, err := isa.Lookup(s.ISA)
	return err
}

// ValidateDesigns checks that every name in Scale.Designs resolves in the
// scale's design registry, returning an *mmu.UnknownDesignError for the
// first one that does not — so a typo'd -designs flag fails up front
// instead of erroring mid-grid.
func (s Scale) ValidateDesigns() error {
	if len(s.Designs) == 0 {
		return nil
	}
	reg := s.registry()
	for _, name := range s.Designs {
		if _, ok := reg.Lookup(name); !ok {
			return &mmu.UnknownDesignError{Name: name, Valid: reg.Names()}
		}
	}
	return nil
}

// ByName finds an experiment, returning *UnknownExperimentError with the
// valid names when it does not exist.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, &UnknownExperimentError{Name: name, Valid: Names()}
}
