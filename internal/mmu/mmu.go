// Package mmu composes an N-level TLB hierarchy, a hardware page-table
// walker (optionally fronted by paging-structure caches), and the cache
// hierarchy into a memory-management unit with full latency and event
// accounting — the functional simulator of Sec 6.2.
//
// Every translation request flows through the ordered hierarchy levels
// (the paper's fixed L1 TLB → L2 TLB pipeline is the two-level instance),
// then to the page-table walk, with walker PTE reads going through the
// cache hierarchy (so walk cost depends on page-table locality, as on
// real hardware). Misses on unmapped addresses invoke a demand-paging
// callback (the OS layer) and re-walk.
//
// Designs are data: a DesignSpec names the level stack, its geometry, and
// whether the walker carries paging-structure caches, and the Registry
// turns validated specs into MMUs. The hand-written constructors this
// package used to carry are now registry entries.
package mmu

import (
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/pwc"
	"mixtlb/internal/tlb"
)

// TranslationSource abstracts the page-table walker: the native
// pagetable.PageTable, or a nested (2D) walker for virtualized systems.
type TranslationSource interface {
	// Walk performs a hardware walk for va.
	Walk(va addr.V) pagetable.WalkResult
	// SetDirty sets the dirty bit of the leaf covering va (the micro-op
	// injected on a store through a non-dirty TLB entry).
	SetDirty(va addr.V) bool
}

// FaultHandler demand-maps va on a page fault, returning false if the
// address is invalid (a true segfault).
type FaultHandler func(va addr.V, write bool) bool

// Latencies configures the cycle model.
type Latencies struct {
	// L1Hit is charged for every request (the first level's probe overlaps
	// the L1 cache access on real parts; this is its exposed cost).
	L1Hit uint64
	// L2Hit is the added cost of each probe round beyond the first level
	// (any deeper level without its own HitLatency override).
	L2Hit uint64
	// ExtraProbe is the added cost of each probe round beyond the first
	// (hash-rehash re-probes, predictor second rounds).
	ExtraProbe uint64
	// DirtyMicroOp is the cost of the injected PTE dirty-bit store.
	DirtyMicroOp uint64
}

// DefaultLatencies mirrors commercial parts (Sec 4: L2 TLBs take 5-7
// cycles). The dirty micro-op has no default exposed latency: it is a
// store to an (almost always L1D-resident) PTE line that retires off the
// original store's critical path. The paper accounts for it the same way
// — as added cache traffic, not runtime (Sec 4.4) — and the simulator
// still counts every micro-op for the energy model. Set DirtyMicroOp to
// model in-order or assist-based implementations that expose it.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, L2Hit: 7, ExtraProbe: 2, DirtyMicroOp: 0}
}

// Level is one hierarchy level of a Config: a TLB plus its probe cost.
type Level struct {
	TLB tlb.TLB
	// HitLatency is the added cost of probing this level. Zero selects
	// the default: Lat.L1Hit for the first level (charged on every
	// request), Lat.L2Hit for every deeper level.
	HitLatency uint64
}

// L wraps TLBs into a Level slice with default latencies, skipping nils —
// the compact spelling callers use for ad-hoc hierarchies: L(l1, l2).
func L(tlbs ...tlb.TLB) []Level {
	levels := make([]Level, 0, len(tlbs))
	for _, t := range tlbs {
		if t != nil {
			levels = append(levels, Level{TLB: t})
		}
	}
	return levels
}

// Config assembles an MMU.
type Config struct {
	Name string
	// Levels is the ordered translation hierarchy, probed first to last.
	// At least one level is required.
	Levels []Level
	Lat    Latencies
	// PWC, when non-nil, attaches paging-structure caches to the walker:
	// walks skip the upper-level PTE references a cached prefix supplies.
	// Never share one cache across address spaces.
	PWC *pwc.Cache
	// FreeWalks makes misses cost nothing — used by the ideal-TLB
	// yardstick so its only cost is the first-level hit cycle.
	FreeWalks bool
}

// Stats aggregates the MMU's event counters. The L1/L2 fields describe
// the first two hierarchy levels (every design in the paper has at most
// two); DeepHits folds any third-or-deeper level in, and per-level detail
// for arbitrary hierarchies comes from MMU.LevelStats.
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L2Hits   uint64
	DeepHits uint64 // hits at hierarchy levels beyond the second
	Walks    uint64
	Faults   uint64

	// ContigWalks counts walks whose leaf carried the ISA's hardware
	// contiguity encoding (SVNAPOT range / ARM64 contiguous-hint block).
	// Always zero on descriptors without one, including default x86-64.
	ContigWalks uint64

	// Books holds every charged translation cycle, each in exactly one
	// ledger category; MMU.charge is its only writer. Cycles, WalkCycles
	// and VictimProbeCycles are sums over it that MMU.Stats fills in.
	Books      [ledger.NumCategories]uint64
	Cycles     uint64 // total translation cycles
	WalkCycles uint64 // subset spent in page-table walks (retries excluded)

	L1Lookup tlb.Cost // accumulated lookup costs
	L2Lookup tlb.Cost
	L1Fill   tlb.Cost // accumulated fill costs
	L2Fill   tlb.Cost

	WalkRefs      uint64 // PTE memory references issued by the walker
	DirtyMicroOps uint64
	Invalidations uint64
	Flushes       uint64

	// Paging-structure-cache accounting (zero unless the design has one).
	PWCHits        uint64 // walks that short-circuited upper levels
	PWCMisses      uint64 // walks the caches could not shorten
	PWCSkippedRefs uint64 // upper-level PTE references never issued

	// Victim-level accounting (zero unless the hierarchy ends in a
	// cache-resident victim level; see tlb.Victim).
	Demotions         uint64 // evicted feeder entries the victim level absorbed
	DemotionDrops     uint64 // evicted entries the victim level refused (e.g. 1GB)
	VictimEvictions   uint64 // victim-level PTEs displaced by absorbing demotions
	VictimProbes      uint64 // victim-level probes issued (hits and misses)
	VictimProbeCycles uint64 // cycles those probes spent in the data caches (retries excluded)

	// Fault-injection accounting (zero unless chaos/oracle attached).
	ECC              tlb.ECCStats
	PTECorruptions   uint64 // walker results corrupted in flight
	OracleMismatches uint64 // translations the oracle rejected
	OracleRecoveries uint64 // rejected translations later corrected
	// OracleUnrecovered counts accesses that stayed wrong after every
	// retry and the ground-truth fallback (only possible when the oracle's
	// own page table has no mapping — i.e. never, in a healthy run).
	OracleUnrecovered uint64
}

// LevelStat is one hierarchy level's share of the counters, for reports
// that want per-level detail at any depth.
type LevelStat struct {
	Name   string // the level's TLB name
	Hits   uint64
	Lookup tlb.Cost
	Fill   tlb.Cost
}

// maxOracleRetries bounds the scrub-and-retranslate loop when the oracle
// rejects a result; after that the oracle's ground truth is substituted so
// no wrong translation ever reaches the workload.
const maxOracleRetries = 3

// hierLevel is one level's runtime state: its TLB, probe cost, counters,
// and the optional interfaces pre-asserted once at construction so the
// hot path never repeats a type switch.
type hierLevel struct {
	tlb tlb.TLB
	lat uint64 // cycles charged when this level is probed

	hits   uint64
	lookup tlb.Cost
	fill   tlb.Cost

	promoter  tlb.Promoter
	bundler   tlb.BundleProvider
	refresher tlb.DirtyRefresher
	scrubber  tlb.Scrubber
	demoter   tlb.Demoter
	cacheRes  tlb.CacheResident
}

// MMU is a simulated memory-management unit.
type MMU struct {
	cfg    Config
	levels []hierLevel
	src    TranslationSource
	caches *cachesim.Hierarchy
	fault  FaultHandler
	chaos  *chaos.Injector
	oracle *chaos.Oracle
	pwc    *pwc.Cache
	stats  Stats

	// pt is src when it is the native page table; it enables the fused
	// walk paths (WalkInto buffer reuse, single-traversal SetDirtyLine).
	pt *pagetable.PageTable
	// walkBuf is the reusable walk result for native sources, keeping
	// steady-state misses allocation-free. Nothing retains a walk past the
	// Translate call that produced it, so one buffer per MMU suffices.
	walkBuf pagetable.WalkResult
	// promoLine is the single-translation line used when a deeper-level
	// hit without bundle members promotes into the levels above it.
	promoLine [1]pagetable.Translation
	// lineBuf is the reusable PTE cache line for fused dirty-bit assists.
	lineBuf []pagetable.Translation

	// replayOK records whether the first level's lookups are
	// replay-consistent (tlb.ReplayConsistent); memoOK additionally
	// requires no chaos injector or oracle. memo caches the last pure
	// first-level hit so consecutive accesses to the same 4KB page replay
	// its exact Result and Cost without re-probing.
	replayOK bool
	memoOK   bool
	memo     memoEntry

	// retrying marks an oracle-triggered re-translation in flight: charge
	// books its cycles as ChaosRetry, the cost of the injected fault.
	retrying bool

	// tel is the telemetry hook block, nil unless AttachTelemetry enabled
	// it; every use is a single nil-check branch.
	tel *mmuTel
	// led is the charge-trail ledger, nil unless AttachLedger enabled
	// it; like tel, every use is a single nil-check branch and it
	// observes charges without ever influencing them.
	led *ledger.Ledger
}

// memoEntry captures one pure first-level hit (no fault, no dirty-bit
// transition) for replay on consecutive same-page accesses.
type memoEntry struct {
	valid  bool
	vpn4k  uint64 // 4KB virtual page number of the hit
	dirty  bool   // entry dirty bit (write replays require it set)
	size   addr.PageSize
	paBase addr.P // PA of the serving 4KB frame
	cycles uint64
	cost   tlb.Cost
}

// New builds an MMU. caches may be shared with other MMUs (e.g. GPU
// shader cores sharing an LLC); fault may be nil if every access is
// pre-mapped.
func New(cfg Config, src TranslationSource, caches *cachesim.Hierarchy, fault FaultHandler) (*MMU, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("mmu %q: config needs at least one hierarchy level", cfg.Name)
	}
	if cfg.Lat == (Latencies{}) {
		cfg.Lat = DefaultLatencies()
	}
	m := &MMU{cfg: cfg, src: src, caches: caches, fault: fault, pwc: cfg.PWC}
	m.levels = make([]hierLevel, len(cfg.Levels))
	for i, l := range cfg.Levels {
		if l.TLB == nil {
			return nil, fmt.Errorf("mmu %q: hierarchy level %d has no TLB", cfg.Name, i)
		}
		lat := l.HitLatency
		if lat == 0 {
			if i == 0 {
				lat = cfg.Lat.L1Hit
			} else {
				lat = cfg.Lat.L2Hit
			}
		}
		lv := &m.levels[i]
		lv.tlb = l.TLB
		lv.lat = lat
		lv.promoter, _ = l.TLB.(tlb.Promoter)
		lv.bundler, _ = l.TLB.(tlb.BundleProvider)
		lv.refresher, _ = l.TLB.(tlb.DirtyRefresher)
		lv.scrubber, _ = l.TLB.(tlb.Scrubber)
		lv.demoter, _ = l.TLB.(tlb.Demoter)
		lv.cacheRes, _ = l.TLB.(tlb.CacheResident)
	}
	if last := len(m.levels) - 1; m.levels[last].demoter != nil {
		// A demotion-fed victim level is filled only by capacity evictions
		// from the level directly above it; wire that feed now so the hot
		// path never checks for it.
		if last == 0 {
			return nil, fmt.Errorf("mmu %q: a demotion-fed victim level cannot be the only hierarchy level", cfg.Name)
		}
		en, ok := m.levels[last-1].tlb.(tlb.EvictionNotifier)
		if !ok {
			return nil, fmt.Errorf("mmu %q: level %d (%s) feeds the victim level by demotion but cannot report evictions",
				cfg.Name, last-1, m.levels[last-1].tlb.Name())
		}
		en.SetEvictionSink(m.demote)
	}
	m.pt, _ = src.(*pagetable.PageTable)
	if rc, ok := m.levels[0].tlb.(tlb.ReplayConsistent); ok && rc.LookupReplayConsistent() {
		m.replayOK = true
	}
	m.memoOK = m.replayOK
	return m, nil
}

// refreshMemoOK recomputes the memo gate after chaos/oracle attachment:
// injected corruption and oracle retries make replayed results unsafe.
func (m *MMU) refreshMemoOK() {
	m.memo = memoEntry{}
	m.memoOK = m.replayOK && m.chaos == nil && m.oracle == nil
}

// DisableMemo turns the same-page replay memo off permanently (used by
// differential tests that compare memoized against memo-free runs).
func (m *MMU) DisableMemo() {
	m.replayOK = false
	m.refreshMemoOK()
}

// InjectFaults attaches a fault injector: TLB hits and walker results pass
// through it and may come back corrupted (detectably or silently).
func (m *MMU) InjectFaults(in *chaos.Injector) {
	m.chaos = in
	m.refreshMemoOK()
}

// AttachOracle attaches a translation oracle that cross-checks every
// non-faulting result against page-table ground truth.
func (m *MMU) AttachOracle(o *chaos.Oracle) {
	m.oracle = o
	m.refreshMemoOK()
}

// Name returns the MMU's configuration name.
func (m *MMU) Name() string { return m.cfg.Name }

// Depth returns the number of hierarchy levels.
func (m *MMU) Depth() int { return len(m.levels) }

// LevelTLBs returns the hierarchy's TLBs in probe order — a fresh slice,
// for introspection (reach snapshots, invariant checks); the simulation
// itself never calls it.
func (m *MMU) LevelTLBs() []tlb.TLB {
	out := make([]tlb.TLB, len(m.levels))
	for i := range m.levels {
		out[i] = m.levels[i].tlb
	}
	return out
}

// PWC exposes the attached paging-structure cache, nil when the design
// has none.
func (m *MMU) PWC() *pwc.Cache { return m.pwc }

// Stats returns a snapshot of the counters, folding the per-level
// counters into the legacy two-level fields and the cycle books into
// their Cycles, WalkCycles and VictimProbeCycles sums.
func (m *MMU) Stats() Stats {
	s := m.stats
	for _, c := range s.Books {
		s.Cycles += c
	}
	s.WalkCycles = s.Books[ledger.WalkFull] + s.Books[ledger.WalkPWC] + s.Books[ledger.WalkContig]
	s.VictimProbeCycles = s.Books[ledger.VictimProbe]
	s.L1Hits = m.levels[0].hits
	s.L1Lookup = m.levels[0].lookup
	s.L1Fill = m.levels[0].fill
	if len(m.levels) > 1 {
		s.L2Hits = m.levels[1].hits
		s.L2Lookup = m.levels[1].lookup
		s.L2Fill = m.levels[1].fill
	}
	for i := 2; i < len(m.levels); i++ {
		s.DeepHits += m.levels[i].hits
	}
	return s
}

// LevelStats returns each hierarchy level's counters in probe order. The
// slice is a fresh snapshot; callers may retain it.
func (m *MMU) LevelStats() []LevelStat {
	out := make([]LevelStat, len(m.levels))
	for i := range m.levels {
		lv := &m.levels[i]
		out[i] = LevelStat{Name: lv.tlb.Name(), Hits: lv.hits, Lookup: lv.lookup, Fill: lv.fill}
	}
	return out
}

// ResetStats zeroes the counters (TLB and cache contents are retained),
// separating warm-up from measurement.
func (m *MMU) ResetStats() {
	m.stats = Stats{}
	for i := range m.levels {
		lv := &m.levels[i]
		lv.hits, lv.lookup, lv.fill = 0, tlb.Cost{}, tlb.Cost{}
	}
	if m.pwc != nil {
		m.pwc.ResetStats()
	}
	if m.led != nil {
		m.led.Reset()
	}
}

// Result reports one translated access.
type Result struct {
	PA   addr.P
	Size addr.PageSize // page size of the serving translation
	// HitLevel is the hierarchy level that served the hit (0 = first
	// level), or -1 when the access walked or faulted.
	HitLevel int8
	Cycles   uint64
	L1Hit    bool // HitLevel == 0
	L2Hit    bool // HitLevel == 1
	Walked   bool
	Faulted  bool // unmapped and the fault handler refused
}

// provenance names the structure that served the result, for oracle
// diagnostics.
func (r Result) provenance() string {
	switch {
	case r.HitLevel == 0:
		return "L1"
	case r.HitLevel == 1:
		return "L2"
	case r.HitLevel > 1:
		return fmt.Sprintf("L%d", r.HitLevel+1)
	case r.Walked:
		return "walk"
	default:
		return "fault"
	}
}

// Translate services one memory access. With an oracle attached, the
// result is cross-checked against page-table ground truth: a mismatch
// scrubs the offending entries from every hierarchy level and
// re-translates, and after maxOracleRetries the oracle's own translation
// is substituted, so a workload never consumes a wrong physical address.
func (m *MMU) Translate(req tlb.Request) Result {
	if res, ok := m.replayMemo(req); ok {
		return res
	}
	m.stats.Accesses++
	if m.led == nil {
		res, _ := m.translateChecked(req)
		return res
	}
	refs := m.stats.WalkRefs
	m.led.Begin()
	res, retries := m.translateChecked(req)
	m.led.End(ledger.Access{VA: uint64(req.VA), Size: res.Size, HitLevel: res.HitLevel,
		Faulted: res.Faulted, WalkRefs: uint16(m.stats.WalkRefs - refs), Retries: uint8(retries)})
	return res
}

// translateChecked is Translate's body after the memo and ledger
// bookkeeping: one hierarchy pass plus the oracle's scrub-and-retry loop,
// returning the result and the number of retry passes. Retry passes book
// their cycles as chaos-retry — the cost of the injected fault, not of
// the design.
func (m *MMU) translateChecked(req tlb.Request) (Result, int) {
	res := m.translateOnce(req)
	if m.oracle == nil || res.Faulted {
		return res, 0
	}
	mismatched := false
	retries := 0
	for try := 0; try <= maxOracleRetries; try++ {
		mm := m.oracle.Check(m.cfg.Name, res.provenance(), req.VA, res.Size, res.PA)
		if mm == nil {
			if mismatched {
				m.stats.OracleRecoveries++
			}
			return res, retries
		}
		mismatched = true
		m.stats.OracleMismatches++
		m.scrubCorrupt(req.VA, res.Size)
		if try < maxOracleRetries {
			m.retrying = true
			res = m.translateOnce(req)
			m.retrying = false
			retries++
			if res.Faulted {
				return res, retries
			}
		}
	}
	// Retries exhausted (persistent injection): serve the oracle's ground
	// truth rather than a corrupted translation.
	if tr, ok := m.oracle.GroundTruth(req.VA); ok {
		res.PA = tr.Translate(req.VA)
		res.Size = tr.Size
		m.stats.OracleRecoveries++
	} else {
		m.stats.OracleUnrecovered++
	}
	return res, retries
}

// replayMemo serves a consecutive access to the last memoized 4KB page
// without re-probing the first level, replaying the exact Result, Cost,
// and cycle charge of the pure hit that set the memo. Any non-matching
// access clears the memo: it only ever covers an unbroken same-page run,
// during which no TLB or page-table state changes (the first level is
// replay-consistent by the memoOK gate, and writes replay only through
// already-dirty entries, so no dirty transition is skipped).
func (m *MMU) replayMemo(req tlb.Request) (Result, bool) {
	if !m.memo.valid {
		return Result{}, false
	}
	if uint64(req.VA)>>addr.Shift4K != m.memo.vpn4k || (req.Write && !m.memo.dirty) {
		m.memo.valid = false
		return Result{}, false
	}
	m.stats.Accesses++
	m.levels[0].hits++
	m.levels[0].lookup.Add(m.memo.cost)
	if m.tel != nil {
		m.tel.memoHits.Inc()
	}
	res := Result{
		PA:    m.memo.paBase + addr.P(uint64(req.VA)&((1<<addr.Shift4K)-1)),
		Size:  m.memo.size,
		L1Hit: true,
	}
	if m.led != nil {
		m.led.Begin()
	}
	m.charge(&res, ledger.MemoReplay, -1, m.memo.cycles)
	if m.led != nil {
		m.led.End(ledger.Access{VA: uint64(req.VA), Size: res.Size})
	}
	return res, true
}

// charge is the single point where the MMU spends cycles: they add to
// the access's Result, land in exactly one Stats.Books category
// (ChaosRetry while an oracle retry is in flight), and, only when a
// ledger is attached, extend its trail. level is the probed hierarchy
// level, or -1 for charges that are not probes.
func (m *MMU) charge(res *Result, cat ledger.Category, level int, cycles uint64) {
	if m.retrying {
		cat, level = ledger.ChaosRetry, -1
	}
	res.Cycles += cycles
	m.stats.Books[cat] += cycles
	if m.led != nil {
		m.led.Step(cat, int8(level), cycles)
	}
}

// TranslateBatch translates reqs[i] into out[i], amortizing per-call
// overhead across the batch. It stops after writing the first faulted
// result and returns the number of results produced (len(reqs) when none
// faulted). out must be at least as long as reqs.
func (m *MMU) TranslateBatch(reqs []tlb.Request, out []Result) int {
	out = out[:len(reqs)]
	for i := range reqs {
		r, ok := m.replayMemo(reqs[i])
		if !ok {
			r = m.Translate(reqs[i])
		}
		out[i] = r
		if r.Faulted {
			return i + 1
		}
	}
	return len(reqs)
}

// translateOnce runs one full probe of the hierarchy — first level to
// last, then the page-table walk — including fault injection at each
// layer.
func (m *MMU) translateOnce(req tlb.Request) Result {
	var res Result
	res.HitLevel = -1
	for li := range m.levels {
		lv := &m.levels[li]
		if lv.cacheRes == nil {
			m.charge(&res, ledger.ProbeCategory(li), li, lv.lat)
		}
		r := lv.tlb.Lookup(req)
		if lv.cacheRes != nil {
			// A cache-resident victim level has no SRAM latency of its
			// own: each probe is a data-cache access to the storage lines
			// it read (which also fills them — the cache pollution Victima
			// pays is modeled, not abstracted away).
			m.chargeCacheProbes(lv, &res)
		}
		lv.lookup.Add(r.Cost)
		if r.Cost.Probes > 1 && lv.cacheRes == nil {
			m.charge(&res, ledger.ExtraProbe, -1, uint64(r.Cost.Probes-1)*m.cfg.Lat.ExtraProbe)
		}
		if r.Hit {
			switch m.chaos.CorruptTLBHit(&r.T) {
			case chaos.FaultDetected:
				// Parity caught the flipped bit: scrub and fall through
				// to the deeper levels as if the entry had never been
				// there.
				m.stats.ECC.ParityDetected++
				m.stats.ECC.Rewalks++
				m.scrubCorrupt(req.VA, r.T.Size)
				r.Hit = false
			case chaos.FaultSilent:
				m.stats.ECC.SilentCorruptions++
			}
		}
		if !r.Hit {
			continue
		}
		lv.hits++
		res.HitLevel = int8(li)
		res.L1Hit = li == 0
		res.L2Hit = li == 1
		res.PA = r.T.Translate(req.VA)
		res.Size = r.T.Size
		if li > 0 {
			// Promote into every level above the hit: hardware refills
			// the upper levels from the hit entry, carrying the entry's
			// whole coalesced membership. Mirroring designs fill only the
			// probed set here.
			m.promoLine[0] = r.T
			line := m.promoLine[:]
			if lv.bundler != nil {
				if members := lv.bundler.Members(req.VA); len(members) > 0 {
					line = members
				}
			}
			for j := li - 1; j >= 0; j-- {
				up := &m.levels[j]
				if up.promoter != nil {
					up.fill.Add(up.promoter.Promote(req, r.T, line))
				} else {
					up.fill.Add(up.tlb.Fill(req, pagetable.WalkResult{
						Found: true, Translation: r.T, Line: line,
					}))
				}
			}
			if lv.demoter != nil {
				// Move semantics for the victim level: the served page is
				// now resident above, so drop it here — a future eviction
				// will demote it back. (Promotions above may themselves
				// have demoted a displaced feeder entry into this level;
				// that happens before this invalidate and never concerns
				// the served page, which the feeder exclusively lacked.)
				lv.tlb.Invalidate(req.VA, r.T.Size)
			}
		}
		m.handleDirty(req, r.Dirty, &res, nil)
		if li == 0 && m.memoOK && (!req.Write || r.Dirty) {
			// A pure first-level hit (no dirty transition): memoize it so
			// consecutive same-page accesses replay without re-probing.
			m.memo = memoEntry{
				valid:  true,
				vpn4k:  uint64(req.VA) >> addr.Shift4K,
				dirty:  r.Dirty,
				size:   res.Size,
				paBase: res.PA &^ ((1 << addr.Shift4K) - 1),
				cycles: res.Cycles,
				cost:   r.Cost,
			}
		}
		return res
	}

	walk := m.walk(req, &res)
	if !walk.Found {
		res.Faulted = true
		m.stats.Faults++
		return res
	}
	if m.chaos.CorruptWalk(walk) {
		m.stats.PTECorruptions++
	}
	res.Walked = true
	res.PA = walk.Translation.Translate(req.VA)
	res.Size = walk.Translation.Size
	// Fill deepest level first, mirroring the hardware refill order (the
	// walk response installs in the last level, then propagates up).
	for li := len(m.levels) - 1; li >= 0; li-- {
		m.levels[li].fill.Add(m.levels[li].tlb.Fill(req, *walk))
	}
	m.handleDirty(req, walk.Translation.Dirty, &res, walk)
	return res
}

// chargeCacheProbes prices a cache-resident level's probe: one data-cache
// access per storage line the lookup read. Without a cache hierarchy the
// level's configured latency stands in.
func (m *MMU) chargeCacheProbes(lv *hierLevel, res *Result) {
	m.stats.VictimProbes++
	cycles := lv.lat
	if m.caches != nil {
		cycles = 0
		for _, pa := range lv.cacheRes.ProbedLines() {
			cycles += m.caches.Access(pa).Cycles
		}
	}
	m.charge(res, ledger.VictimProbe, -1, cycles)
}

// demote is the eviction sink wired from the victim level's feeder: a
// capacity-displaced feeder entry either lands in the victim level or is
// accounted as a drop, and any victim-level entries displaced in turn are
// counted — together the books the demotion-conservation property audits.
func (m *MMU) demote(t pagetable.Translation, dirty bool) {
	absorbed, evicted := m.levels[len(m.levels)-1].demoter.Demote(t, dirty)
	if absorbed {
		m.stats.Demotions++
	} else {
		m.stats.DemotionDrops++
	}
	m.stats.VictimEvictions += uint64(evicted)
}

// scrubCorrupt evicts the (presumed corrupted) entries covering va from
// every hierarchy level. TLBs exposing tlb.Scrubber drop the whole
// bundle; others fall back to an ordinary invalidation.
func (m *MMU) scrubCorrupt(va addr.V, size addr.PageSize) {
	for li := range m.levels {
		lv := &m.levels[li]
		if lv.scrubber != nil {
			m.stats.ECC.Scrubbed += uint64(lv.scrubber.ScrubCorrupt(va, size))
		} else {
			m.stats.ECC.Scrubbed += uint64(lv.tlb.Invalidate(va, size))
		}
	}
}

// walk runs the hardware walker (and demand paging on a fault), charging
// each PTE reference through the cache hierarchy. When the design carries
// paging-structure caches, a cached prefix short-circuits the walk's
// upper-level references on the fused WalkInto path: the traversal stays
// functional (the simulator still resolves the leaf), but the skipped
// PTE reads are never charged — exactly the architectural effect.
// The returned result points at the MMU's reusable buffer for native
// sources; it is consumed within the enclosing Translate call and never
// retained.
func (m *MMU) walk(req tlb.Request, res *Result) *pagetable.WalkResult {
	m.stats.Walks++
	walk := &m.walkBuf
	if m.pt != nil {
		m.pt.WalkInto(req.VA, walk)
		if m.tel != nil {
			m.tel.walkFused.Inc()
		}
	} else {
		*walk = m.src.Walk(req.VA)
		if m.tel != nil {
			m.tel.walkScalar.Inc()
		}
	}
	if !walk.Found && m.fault != nil && m.fault(req.VA, req.Write) {
		// Demand paging succeeded; the re-walk models the hardware retry
		// after the OS returns. (OS fault-handling time itself is not
		// part of the address-translation cost the paper measures.)
		if m.pt != nil {
			m.pt.WalkInto(req.VA, walk)
		} else {
			*walk = m.src.Walk(req.VA)
		}
	}
	if walk.ContigPages > 0 {
		m.stats.ContigWalks++
	}
	skip := 0
	if m.pwc != nil {
		// Probe before fill so a walk never short-circuits on the entries
		// it is itself about to cache.
		if n := len(walk.Accesses); n > 1 {
			skip = m.pwc.Skip(req.VA, n-1)
			if skip > 0 {
				m.stats.PWCHits++
				m.stats.PWCSkippedRefs += uint64(skip)
			} else {
				m.stats.PWCMisses++
			}
		}
		if walk.Found {
			m.pwc.Fill(req.VA, len(walk.Accesses))
		}
	}
	if !m.cfg.FreeWalks {
		var cycles uint64
		for _, pa := range walk.Accesses[skip:] {
			m.stats.WalkRefs++
			cycles += m.caches.Access(pa).Cycles
		}
		if m.tel != nil {
			m.tel.walkDepth.Observe(uint64(len(walk.Accesses) - skip))
			m.tel.walkCycles.Observe(cycles)
		}
		// Contig outcome takes precedence: on NAPOT/contig-hint
		// descriptors the breakdown's question is how much walk time the
		// architectural encoding covers, and a PWC-shortened contig walk
		// still learned the block from its leaf.
		cat := ledger.WalkFull
		if skip > 0 {
			cat = ledger.WalkPWC
		}
		if walk.ContigPages > 0 {
			cat = ledger.WalkContig
		}
		m.charge(res, cat, -1, cycles)
	}
	return walk
}

// handleDirty implements the store path of Sec 4.4: a store through an
// entry whose dirty bit is clear injects a micro-op that updates the PTE's
// dirty bit, then lets the TLBs set their entry bits where their policy
// permits (always for 4KB entries; only singleton bundles for MIX/COLT).
//
// walk, when non-nil, is the just-completed miss walk for req.VA: its leaf
// handle lets the assist set the D bit without re-traversing, and its Line
// already holds the PTE cache line (only the demanded entry's Dirty bit
// needs patching). Chaos injection can corrupt walk results, so fusion is
// bypassed whenever an injector is attached.
func (m *MMU) handleDirty(req tlb.Request, entryDirty bool, res *Result, walk *pagetable.WalkResult) {
	if !req.Write || entryDirty {
		return
	}
	m.stats.DirtyMicroOps++
	m.charge(res, ledger.DirtyAssist, -1, m.cfg.Lat.DirtyMicroOp)
	// The assist read the PTE's cache line to write the D bit; coalescing
	// TLBs use the neighbouring D bits to refresh bundle dirty state
	// (free: the access already happened and is priced above).
	var line []pagetable.Translation
	switch {
	case walk != nil && walk.Leaf.Valid() && m.pt != nil && m.chaos == nil:
		// Fused: the miss walk already located the leaf entry.
		walk.Leaf.SetDirty()
		for i := range walk.Line {
			if walk.Line[i].VA == walk.Translation.VA {
				walk.Line[i].Dirty = true
			}
		}
		line = walk.Line
		if m.tel != nil {
			m.tel.dirtyFused.Inc()
		}
	case m.pt != nil:
		m.lineBuf = m.pt.SetDirtyLine(req.VA, m.lineBuf)
		line = m.lineBuf
		if m.tel != nil {
			m.tel.dirtyScalar.Inc()
		}
	default:
		m.src.SetDirty(req.VA)
		line = m.src.Walk(req.VA).Line
		if m.tel != nil {
			m.tel.dirtyGeneric.Inc()
		}
	}
	for li := range m.levels {
		lv := &m.levels[li]
		if lv.refresher != nil {
			lv.refresher.RefreshDirty(req.VA, line)
		} else {
			lv.tlb.MarkDirty(req.VA)
		}
	}
}

// Invalidate performs a TLB shootdown for one page in every hierarchy
// level (and the paging-structure caches, whose entries the page-table
// update also stales).
func (m *MMU) Invalidate(va addr.V, size addr.PageSize) {
	m.stats.Invalidations++
	m.memo = memoEntry{}
	for li := range m.levels {
		m.levels[li].tlb.Invalidate(va, size)
	}
	if m.pwc != nil {
		m.pwc.Invalidate(va)
	}
}

// Flush empties every hierarchy level and the paging-structure caches.
func (m *MMU) Flush() {
	m.stats.Flushes++
	m.memo = memoEntry{}
	for li := range m.levels {
		m.levels[li].tlb.Flush()
	}
	if m.pwc != nil {
		m.pwc.Flush()
	}
}

// Add accumulates o into s field by field: the one aggregator for
// systems of several MMUs (SMP cores, GPU shader cores).
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.DeepHits += o.DeepHits
	s.Walks += o.Walks
	s.Faults += o.Faults
	s.ContigWalks += o.ContigWalks
	for i := range s.Books {
		s.Books[i] += o.Books[i]
	}
	s.Cycles += o.Cycles
	s.WalkCycles += o.WalkCycles
	s.L1Lookup.Add(o.L1Lookup)
	s.L2Lookup.Add(o.L2Lookup)
	s.L1Fill.Add(o.L1Fill)
	s.L2Fill.Add(o.L2Fill)
	s.WalkRefs += o.WalkRefs
	s.DirtyMicroOps += o.DirtyMicroOps
	s.Invalidations += o.Invalidations
	s.Flushes += o.Flushes
	s.PWCHits += o.PWCHits
	s.PWCMisses += o.PWCMisses
	s.PWCSkippedRefs += o.PWCSkippedRefs
	s.Demotions += o.Demotions
	s.DemotionDrops += o.DemotionDrops
	s.VictimEvictions += o.VictimEvictions
	s.VictimProbes += o.VictimProbes
	s.VictimProbeCycles += o.VictimProbeCycles
	s.ECC.Add(o.ECC)
	s.PTECorruptions += o.PTECorruptions
	s.OracleMismatches += o.OracleMismatches
	s.OracleRecoveries += o.OracleRecoveries
	s.OracleUnrecovered += o.OracleUnrecovered
}

// MissRatio returns overall TLB miss ratio (walks / accesses).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Walks) / float64(s.Accesses)
}

// CyclesPerAccess returns average translation cycles per access.
func (s Stats) CyclesPerAccess() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Accesses)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("acc=%d l1=%.2f%% l2=%.2f%% walks=%d cyc/acc=%.2f",
		s.Accesses,
		100*float64(s.L1Hits)/max1(s.Accesses),
		100*float64(s.L2Hits)/max1(s.Accesses),
		s.Walks, s.CyclesPerAccess())
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}
