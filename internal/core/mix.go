// Package core implements MIX TLBs, the contribution of Cox &
// Bhattacharjee (ASPLOS'17): a single set-associative TLB that caches all
// page sizes concurrently.
//
// The design, following Sections 3-4 of the paper:
//
//   - One indexing scheme for every page size: the small-page (4KB) index
//     bits. Superpage lookups therefore pick their index bits from within
//     the superpage's page offset, so a superpage maps to (up to) every
//     set. Fills replicate the superpage entry into those sets — mirrors.
//   - Mirroring alone would waste capacity, so the fill path coalesces:
//     the page-table walker reads PTEs in 64-byte cache lines (8 PTEs),
//     and contiguous, same-permission, accessed superpages in that line
//     merge into a single bundle entry. With as many coalesced superpages
//     as mirror copies, net capacity matches a dedicated superpage TLB.
//   - Bundles are encoded two ways: L1 entries carry a bitmap (simple,
//     supports holes); L2 entries carry a (start,length) range checked by
//     comparators (denser, no holes) — Sec 4.1.
//   - Coalescing is restricted to runs inside K-aligned windows of the
//     virtual superpage number space (the alignment restriction), which
//     turns membership checks into a tag compare plus bitmap/range index.
//   - Mirrored fills are blind: no cross-set duplicate scan. Duplicates
//     within a set are detected and merged on later probes (Sec 4.3).
//   - A bundle's dirty bit is the AND of its members' dirty bits; stores
//     through a not-all-dirty bundle always inject the PTE dirty-bit
//     micro-op (Sec 4.4's conservative policy).
//
// Lookup stays single-probe: only the set named by the request's index
// bits is read, and the physical address is rebuilt by concatenation
// (bitmap mode) or base-plus-offset (range mode).
package core

import (
	"fmt"
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
)

// Encoding selects how a bundle records its coalesced members (Sec 4.1).
type Encoding int

const (
	// Bitmap is the L1 encoding: one presence bit per window slot. It can
	// represent holes, and invalidation clears a single bit.
	Bitmap Encoding = iota
	// Range is the L2 encoding: a (start, length) run checked by
	// comparators. Denser for long runs; invalidation drops the entry.
	Range
)

func (e Encoding) String() string {
	if e == Bitmap {
		return "bitmap"
	}
	return "range"
}

// Config describes a MIX TLB instance, including the ablation knobs
// DESIGN.md calls out.
type Config struct {
	Name string
	Sets int
	Ways int
	// Coalesce is K, the maximum superpages per bundle (a power of two).
	// Fully offsetting mirrors needs K >= Sets. Bitmap entries carry one
	// presence bit per slot, capping K at 64; range entries only store
	// (start, length), allowing K up to 256 — which is why the paper's
	// L2 design switches to the length encoding (Sec 4.1).
	Coalesce int
	// Encoding selects bitmap (L1) or range (L2) bundles.
	Encoding Encoding
	// IndexShift is the VA bit where index extraction starts. The MIX
	// design point is 12 (small-page bits); 21 reproduces the Sec 3
	// ablation that indexes everything by superpage bits.
	IndexShift uint
	// MirrorProbedSetOnly disables the mirror-all-sets prefetch strategy
	// of Sec 4.2, filling only the set the missing request probed.
	MirrorProbedSetOnly bool
	// BlindMirrors makes mirror writes pick a victim without tag-matching
	// the destination set, exactly as the paper's Figure 8 describes —
	// duplicates then arise and are eliminated lazily on probes. The
	// default (false) tag-matches the set being written and merges into
	// an existing compatible bundle instead of inserting a duplicate.
	// This is a deliberate deviation: the paper rejects scanning *all*
	// sets for duplicates, but a within-set tag compare during the fill
	// write costs one set read and prevents fill-storms from evicting
	// live mirrors. BenchmarkDedupPolicy quantifies the difference.
	BlindMirrors bool
	// NoAlignmentRestriction lifts the K-aligned window restriction,
	// anchoring bundles at arbitrary run starts (ablation; costs wider
	// comparators in hardware).
	NoAlignmentRestriction bool
	// NoDirtyGroups disables line-granular dirty tracking, reverting to
	// the paper's literal policy: one dirty bit per bundle, set only when
	// every member is dirty, so stores through not-all-dirty bundles pay
	// the PTE-update micro-op on every store. The default tracks dirty
	// state per group of 8 members — exactly one PTE cache line, whose D
	// bits the micro-op's assist reads anyway — bounding the added
	// traffic (the ablation quantifies the difference).
	NoDirtyGroups bool
	// ContigPages, when nonzero, is the ISA's hardware contiguity block
	// size in base pages (SVNAPOT's 16-page granule, the ARM64
	// contiguous hint's 16-entry span). It is a validation constraint,
	// not a runtime knob: the walker already hands the fill logic every
	// member of an encoded block through walk.Line, so the only
	// requirement is that a bundle can hold one whole block — New
	// rejects Coalesce below it. Zero (the x86-64 default) imposes
	// nothing.
	ContigPages int
	// SmallCoalesce, when nonzero, additionally coalesces runs of
	// contiguous 4KB pages into bundles of up to this many members — the
	// MIX+COLT combination of Sec 7.2 (the paper, like COLT, uses 4). A
	// 4KB bundle spans several index granules and is mirrored into that
	// many sets, reusing the superpage machinery. Zero disables it.
	SmallCoalesce int
}

// L1Config is the paper-equivalent L1 MIX TLB: area-equivalent to the
// split L1's 100 entries (16 sets x 6 ways = 96 entries, the headroom
// paying for coalescing logic), bitmap encoding, K equal to the set count
// so coalescing can fully offset mirroring.
func L1Config() Config {
	return Config{Name: "mix-L1", Sets: 16, Ways: 6, Coalesce: 16, Encoding: Bitmap, IndexShift: addr.Shift4K}
}

// L2Config is the default L2 MIX TLB: 512 entries (the split L2's shared
// array; the separate 1GB TLB's 32 entries are the claimed area saving),
// organized as 64 sets x 8 ways with K = 64 so that coalescing exactly
// offsets mirroring (ways x K = 512 superpages of net reach, matching the
// split L2's dedicated capacity, but usable by any page-size mix).
//
// Deviation from the paper: Sec 4.1 gives the L2 a (start,length) range
// encoding. Ranges only merge with adjacent fragments, so under
// popularity-ordered miss streams (hot pages touched in popularity, not
// address, order) window bundles fragment into runs that evict each other
// — an instability this reproduction surfaced. The default therefore uses
// the bitmap encoding (64 extra bits per entry); L2RangeConfig preserves
// the paper's encoding and BenchmarkBundleEncoding quantifies the gap.
func L2Config() Config {
	return Config{Name: "mix-L2", Sets: 64, Ways: 8, Coalesce: 64, Encoding: Bitmap, IndexShift: addr.Shift4K}
}

// L2RangeConfig is the paper's literal L2 design point: range-encoded
// bundles with K equal to the set count.
func L2RangeConfig() Config {
	return Config{Name: "mix-L2-range", Sets: 128, Ways: 4, Coalesce: 128, Encoding: Range, IndexShift: addr.Shift4K}
}

// Stats exposes MIX-specific event counters for experiments and tests.
type Stats struct {
	MirrorWrites     uint64 // entry writes beyond the first set on a fill
	CoalesceMerges   uint64 // fills absorbed into an existing bundle
	DupsEliminated   uint64 // duplicate copies merged away during probes
	BundlesFilled    uint64 // new bundle entries created
	SmallFills       uint64 // 4KB fills
	MembersPerFill   uint64 // total members across bundle fills (avg = /BundlesFilled)
	HolesRepresent   uint64 // bitmap fills whose member set had holes
	RangeTruncation  uint64 // range fills that dropped non-prefix members
	CorruptionScrubs uint64 // entries dropped by ScrubCorrupt (ECC scrubbing)
}

// MixTLB implements tlb.TLB.
type MixTLB struct {
	cfg     Config
	setMask uint64 // Sets-1
	data    [][]entry
	clock   uint64
	stats   Stats

	allSets []int                   // 0..Sets-1, the full-mirror target list
	targets []int                   // scratch reused by mirrorTargets
	members []pagetable.Translation // scratch reused by Members

	// sink receives translations displaced by capacity replacement (the
	// victim-level demotion feed), nil unless attached. Mirrored bundles
	// mean an evicted copy's members may still be resident in other sets;
	// the sink sees them anyway — demotion must be conservative, and the
	// probe order (SRAM levels first) keeps such duplicates harmless.
	sink tlb.EvictionSink

	// tel is the telemetry hook block, nil unless AttachTelemetry enabled
	// it; every use is a single nil-check branch.
	tel *mixTel
}

// entry is one MIX TLB way. A 2-bit size field distinguishes 4KB entries
// from superpage bundles (Fig 5/6); the simulator keeps the fields
// unpacked, ordered so an entry fills one 64-byte host cache line (fills
// scan every way of every mirrored set).
type entry struct {
	valid bool
	size  addr.PageSize

	// Bundles (superpages always; 4KB pages when SmallCoalesce is on).
	// window identifies the k-aligned group of page numbers (or, without
	// the alignment restriction, the explicit base page number). basePA
	// is the physical address corresponding to window slot 0, so member
	// i's PA is basePA + i<<sizeShift. k is the entry's window capacity;
	// k == 0 marks a plain (non-bundle) 4KB entry.
	k      uint16
	start  uint16 // Range encoding: first present slot
	length uint16 // Range encoding: run length (0 = unused)
	window uint64
	basePA addr.P
	bitmap uint64 // Bitmap encoding

	// 4KB entries.
	vpn uint64
	pa  addr.P

	perm  addr.Perm
	dirty bool
	// dgroups has bit g set when every present member in slot group
	// [8g, 8g+8) is known dirty; a set bit exempts stores to that group
	// from the PTE-update micro-op. Groups are exactly PTE cache lines.
	dgroups uint32
	stamp   uint64
}

var (
	_ tlb.TLB            = (*MixTLB)(nil)
	_ tlb.BundlePromoter = (*MixTLB)(nil)
)

// New builds a MIX TLB from cfg.
func New(cfg Config) (*MixTLB, error) {
	if cfg.Sets <= 0 || !addr.IsPow2(uint64(cfg.Sets)) || cfg.Ways <= 0 {
		return nil, fmt.Errorf("core: invalid %s config: bad geometry %dx%d", cfg.Name, cfg.Sets, cfg.Ways)
	}
	maxK := 64
	if cfg.Encoding == Range {
		maxK = 256
	}
	if cfg.Coalesce <= 0 || cfg.Coalesce > maxK || !addr.IsPow2(uint64(cfg.Coalesce)) {
		return nil, fmt.Errorf("core: invalid %s config: bad coalesce limit %d for %v encoding", cfg.Name, cfg.Coalesce, cfg.Encoding)
	}
	if cfg.SmallCoalesce != 0 && (cfg.SmallCoalesce < 0 || cfg.SmallCoalesce > maxK || !addr.IsPow2(uint64(cfg.SmallCoalesce))) {
		return nil, fmt.Errorf("core: invalid %s config: bad small-page coalesce limit %d", cfg.Name, cfg.SmallCoalesce)
	}
	if cfg.ContigPages > 0 && cfg.Coalesce < cfg.ContigPages {
		return nil, fmt.Errorf("core: invalid %s config: coalesce limit %d cannot cover the ISA's %d-page contiguity blocks", cfg.Name, cfg.Coalesce, cfg.ContigPages)
	}
	if cfg.IndexShift == 0 {
		cfg.IndexShift = addr.Shift4K
	}
	m := &MixTLB{cfg: cfg, setMask: uint64(cfg.Sets - 1)}
	m.data = make([][]entry, cfg.Sets)
	for i := range m.data {
		m.data[i] = make([]entry, cfg.Ways)
	}
	m.allSets = make([]int, cfg.Sets)
	for i := range m.allSets {
		m.allSets[i] = i
	}
	m.targets = make([]int, 0, cfg.Sets)
	maxMembers := cfg.Coalesce
	if cfg.SmallCoalesce > maxMembers {
		maxMembers = cfg.SmallCoalesce
	}
	m.members = make([]pagetable.Translation, 0, maxMembers)
	return m, nil
}

// Name implements tlb.TLB.
func (m *MixTLB) Name() string { return m.cfg.Name }

// Entries implements tlb.TLB.
func (m *MixTLB) Entries() int { return m.cfg.Sets * m.cfg.Ways }

// Config returns the configuration (ablation reporting).
func (m *MixTLB) Config() Config { return m.cfg }

// Stats returns a snapshot of MIX-specific counters.
func (m *MixTLB) Stats() Stats { return m.stats }

// SetEvictionSink implements tlb.EvictionNotifier.
func (m *MixTLB) SetEvictionSink(sink tlb.EvictionSink) { m.sink = sink }

// reportEviction feeds every member of a displaced entry to the sink.
// Call sites guarantee e.valid and m.sink != nil.
func (m *MixTLB) reportEviction(e *entry) {
	if e.k == 0 {
		m.sink(pagetable.Translation{
			VA: addr.V(e.vpn << addr.Shift4K), PA: e.pa, Size: addr.Page4K,
			Perm: e.perm, Accessed: true, Dirty: e.dirty,
		}, e.dirty)
		return
	}
	for s := 0; s < int(e.k); s++ {
		if e.memberPresent(m.cfg.Encoding, s) {
			m.sink(m.memberTranslation(e, s), e.memberDirty(s))
		}
	}
}

// ReachBytes implements tlb.ReachReporter: bytes of virtual address
// space the resident entries translate, counting each distinct member
// page once no matter how many sets mirror it. Snapshot-only (allocates).
func (m *MixTLB) ReachBytes() uint64 {
	type pageKey struct {
		size addr.PageSize
		svn  uint64
	}
	seen := make(map[pageKey]struct{})
	for _, set := range m.data {
		for i := range set {
			e := &set[i]
			if !e.valid {
				continue
			}
			if e.k == 0 {
				seen[pageKey{addr.Page4K, e.vpn}] = struct{}{}
				continue
			}
			base := m.baseSVN(e)
			for s := 0; s < int(e.k); s++ {
				if e.memberPresent(m.cfg.Encoding, s) {
					seen[pageKey{e.size, base + uint64(s)}] = struct{}{}
				}
			}
		}
	}
	var b uint64
	for k := range seen {
		b += k.size.Bytes()
	}
	return b
}

// setIndex computes the single set a request probes: VA bits
// [IndexShift, IndexShift+log2(Sets)).
func (m *MixTLB) setIndex(va addr.V) int {
	return int((uint64(va) >> m.cfg.IndexShift) & m.setMask)
}

// windowOf returns the bundle tag and member slot for a page number in a
// window of capacity k. k is always a power of two (enforced by New), so
// the divide/modulo reduce to shift/mask on this hot path.
func windowOf(svn, k uint64) (window uint64, slot int) {
	shift := uint(bits.TrailingZeros64(k))
	return svn >> shift, int(svn & (k - 1))
}

// coalesceLimit returns the bundle capacity for a page size.
func (m *MixTLB) coalesceLimit(s addr.PageSize) int {
	if s == addr.Page4K {
		return m.cfg.SmallCoalesce
	}
	return m.cfg.Coalesce
}

// slotOf locates va's member slot within bundle e, returning ok=false when
// va is outside the bundle's window.
func (m *MixTLB) slotOf(e *entry, va addr.V) (int, bool) {
	svn := va.PageNum(e.size)
	if m.cfg.NoAlignmentRestriction {
		if svn < e.window || svn >= e.window+uint64(e.k) {
			return 0, false
		}
		return int(svn - e.window), true
	}
	w, slot := windowOf(svn, uint64(e.k))
	if w != e.window {
		return 0, false
	}
	return slot, true
}

// memberPresent checks the encoding for slot presence.
func (e *entry) memberPresent(enc Encoding, slot int) bool {
	if enc == Bitmap {
		return e.bitmap&(1<<slot) != 0
	}
	return e.length > 0 && slot >= int(e.start) && slot < int(e.start)+int(e.length)
}

// memberTranslation reconstructs the member page's translation: physical
// addresses come from concatenation/addition against the bundle base
// (Fig 7 step 5).
func (m *MixTLB) memberTranslation(e *entry, slot int) pagetable.Translation {
	svn := m.baseSVN(e) + uint64(slot)
	return pagetable.Translation{
		VA:       addr.V(svn << e.size.Shift()),
		PA:       e.basePA + addr.P(uint64(slot)<<e.size.Shift()),
		Size:     e.size,
		Perm:     e.perm,
		Accessed: true,
		Dirty:    e.memberDirty(slot),
	}
}

// memberCount returns how many superpages the bundle holds.
func (e *entry) memberCount(enc Encoding) int {
	if enc == Bitmap {
		return bits.OnesCount64(e.bitmap)
	}
	return int(e.length)
}

// memberDirty reports the effective dirty state seen by a store to slot:
// the whole-bundle bit or the slot's group bit.
func (e *entry) memberDirty(slot int) bool {
	return e.dirty || e.dgroups&(1<<(slot/8)) != 0
}

// slots returns the bundle's present slots.
func (e *entry) slots(enc Encoding) slotSet {
	var s slotSet
	if enc == Bitmap {
		s[0] = e.bitmap
	} else {
		s.addRange(int(e.start), int(e.length))
	}
	return s
}

// dirtySlots returns the slots memberDirty reports dirty.
func (e *entry) dirtySlots() slotSet {
	if e.dirty {
		return allSlots
	}
	return groupSlots(e.dgroups)
}

// groupMask has bit g set when slot group g holds a present member.
func (e *entry) groupMask(enc Encoding) uint32 {
	if enc == Bitmap {
		return uint32(nonzeroBytes(e.bitmap))
	}
	if e.length == 0 {
		return 0
	}
	lo, hi := int(e.start)/8, (int(e.start)+int(e.length)-1)/8
	return uint32(uint64(2)<<hi - uint64(1)<<lo)
}

// vouchedGroups has bit g set when e vouches that every member it holds
// in slot group g is dirty: the group is marked, holds none of e's
// members, or e's whole-bundle bit is set.
func (e *entry) vouchedGroups(enc Encoding) uint32 {
	if e.dirty {
		return ^uint32(0)
	}
	return e.dgroups | ^e.groupMask(enc)
}

// baseSVN returns the page number of the bundle's slot 0.
func (m *MixTLB) baseSVN(e *entry) uint64 {
	if m.cfg.NoAlignmentRestriction {
		return e.window
	}
	return e.window * uint64(e.k)
}

// Lookup implements tlb.TLB: probe exactly one set; all ways are read in
// parallel; entries of every size are match candidates (the size field
// steers the tag compare, Fig 7). Duplicate bundle copies discovered in
// the probed set are merged opportunistically (Sec 4.3, Fig 8 step 5).
func (m *MixTLB) Lookup(req tlb.Request) tlb.Result {
	m.clock++
	res := tlb.Result{Cost: tlb.Cost{Probes: 1, WaysRead: m.cfg.Ways}}
	m.dedupSet(m.data[m.setIndex(req.VA)])
	e, slot := m.find(req.VA)
	if e == nil {
		return res
	}
	e.stamp = m.clock
	res.Hit = true
	if e.k == 0 { // plain 4KB entry
		res.T = pagetable.Translation{
			VA: req.VA.PageBase(addr.Page4K), PA: e.pa, Size: addr.Page4K,
			Perm: e.perm, Accessed: true, Dirty: e.dirty,
		}
		res.Dirty = e.dirty
		return res
	}
	res.T = m.memberTranslation(e, slot)
	res.Dirty = e.memberDirty(slot)
	return res
}

// find returns the entry translating va — the first valid way of va's set
// that is va's plain 4KB entry or a bundle with va's member present — and
// va's slot in it (0 for a plain entry), or nil when va misses.
func (m *MixTLB) find(va addr.V) (*entry, int) {
	set := m.data[m.setIndex(va)]
	for i := range set {
		e := &set[i]
		if !e.valid {
			continue
		}
		if e.k == 0 {
			if e.vpn == va.VPN4K() {
				return e, 0
			}
			continue
		}
		if slot, ok := m.slotOf(e, va); ok && e.memberPresent(m.cfg.Encoding, slot) {
			return e, slot
		}
	}
	return nil, 0
}

// LookupReplayConsistent implements tlb.ReplayConsistent: re-probing the
// same VA with no intervening fill only re-stamps the entry it already
// stamped, and dedupSet is idempotent once a set's duplicates are merged.
func (m *MixTLB) LookupReplayConsistent() bool { return true }

// dedupSet merges duplicate bundle copies within one set. Compatible
// duplicates (same size/window/base/permissions) union their members; an
// incompatible duplicate (stale mapping) loses to the newer copy.
func (m *MixTLB) dedupSet(set []entry) {
	// Duplicates need at least two valid bundles; the common probe (sets
	// full of 4KB entries, or a single mirrored bundle) skips the O(ways²)
	// pair scan entirely.
	bundles := 0
	for i := range set {
		if set[i].valid && set[i].k != 0 {
			bundles++
		}
	}
	if bundles < 2 {
		return
	}
	for i := range set {
		if !set[i].valid || set[i].k == 0 {
			continue
		}
		for j := i + 1; j < len(set); j++ {
			a, b := &set[i], &set[j]
			if !b.valid || b.size != a.size || b.k != a.k || b.window != a.window {
				continue
			}
			// Same window with a different physical base or permissions
			// is a distinct translation (e.g. two non-contiguous
			// superpages sharing a window), not a duplicate: keep both.
			if a.basePA != b.basePA || a.perm != b.perm {
				continue
			}
			// Disjoint range fragments of one window cannot be unioned
			// by the (start,length) encoding; they also coexist until a
			// bridging fragment arrives.
			if !m.mergeMembers(a, b) {
				continue
			}
			a.dirty = a.dirty && b.dirty
			if b.stamp > a.stamp {
				a.stamp = b.stamp
			}
			b.valid = false
			m.stats.DupsEliminated++
		}
	}
}

// mergeMembers folds b's members into a (same window/base/perm assumed),
// reporting whether the union was representable. Bitmaps always union;
// ranges union only when overlapping or adjacent. Dirty-group knowledge
// survives a merge only where both sources agree: a group stays marked
// all-dirty only if each contributor vouches for it (marked it or had no
// members there) and the union has members there.
func (m *MixTLB) mergeMembers(a, b *entry) bool {
	enc := m.cfg.Encoding
	vouched := a.vouchedGroups(enc) & b.vouchedGroups(enc)
	if enc == Bitmap {
		a.bitmap |= b.bitmap
		a.dgroups = vouched & a.groupMask(enc)
		return true
	}
	aStart, aEnd := int(a.start), int(a.start)+int(a.length)
	bStart, bEnd := int(b.start), int(b.start)+int(b.length)
	if b.length == 0 {
		return true
	}
	if a.length == 0 {
		a.start, a.length = b.start, b.length
		return true
	}
	if bStart <= aEnd && aStart <= bEnd {
		if bStart < aStart {
			aStart = bStart
		}
		if bEnd > aEnd {
			aEnd = bEnd
		}
		a.start, a.length = uint16(aStart), uint16(aEnd-aStart)
		a.dgroups = vouched & a.groupMask(enc)
		return true
	}
	return false
}
