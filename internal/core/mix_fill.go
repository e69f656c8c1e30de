package core

import (
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
)

// Fill implements tlb.TLB. 4KB translations fill one set conventionally.
// Superpage translations are coalesced with their cache-line neighbours
// into a bundle, then mirrored into every set any member region can index
// (Sec 4.2's "fill as many sets as necessary" prefetch strategy). See
// fillBundle for the mirror-write policy (non-destructive by default;
// the paper's literal blind fill behind Config.BlindMirrors).
func (m *MixTLB) Fill(req tlb.Request, walk pagetable.WalkResult) tlb.Cost {
	if !walk.Found {
		return tlb.Cost{}
	}
	m.clock++
	tr := walk.Translation
	if tr.Size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		m.stats.SmallFills++
		return m.fillPlain(req.VA, tr)
	}

	bundle := m.buildBundle(tr, walk.Line)
	if tr.Size == addr.Page4K {
		m.stats.SmallFills++
	}
	targets := m.mirrorTargets(req.VA, &bundle)
	cost := m.fillBundle(req.VA, &bundle, targets)
	m.stats.BundlesFilled++
	m.stats.MembersPerFill += uint64(bundle.memberCount(m.cfg.Encoding))
	if m.tel != nil {
		m.tel.bundleMembers.Observe(uint64(bundle.memberCount(m.cfg.Encoding)))
	}
	return cost
}

// fillPlain writes t as a plain 4KB entry into the set va probes,
// replacing the LRU way.
func (m *MixTLB) fillPlain(va addr.V, t pagetable.Translation) tlb.Cost {
	set := m.data[m.setIndex(va)]
	v := m.victim(set)
	if set[v].valid && m.sink != nil {
		m.reportEviction(&set[v])
	}
	set[v] = entry{
		valid: true, size: addr.Page4K,
		vpn: t.VA.VPN4K(), pa: t.PA.PageBase(addr.Page4K),
		perm: t.Perm, dirty: t.Dirty, stamp: m.clock,
	}
	return tlb.Cost{SetsFilled: 1, EntriesWritten: 1}
}

// fillBundle writes the bundle into the target sets. The probed set fills
// normally (merge with a compatible copy, else LRU replacement). Mirror
// sets are prefetch targets: they merge into an existing copy or allocate
// an *invalid* way, but never evict a live entry — one miss must not
// destroy up to sets-1 resident translations (mirror churn would otherwise
// cap the whole TLB at `ways` distinct bundles under capacity pressure).
// Under the BlindMirrors ablation (the paper's literal Sec 4.2/4.3 fill),
// mirrors are written unconditionally with LRU victims.
func (m *MixTLB) fillBundle(probeVA addr.V, bundle *entry, targets []int) tlb.Cost {
	probed := m.setIndex(probeVA)
	var cost tlb.Cost
	for _, si := range targets {
		set := m.data[si]
		var v int
		if si == probed || !m.cfg.BlindMirrors {
			// Only the probed set's copy is recency-refreshed: a merge
			// into a mirror set is maintenance, not a use, and counting
			// it as one inverts LRU (persistently-missing bundles would
			// look hotter everywhere than resident bundles that hit).
			var merged bool
			if merged, v = m.mergeIntoExisting(set, bundle, si == probed); merged {
				cost.SetsFilled++
				cost.EntriesWritten++
				m.stats.CoalesceMerges++
				continue
			}
		} else {
			v = m.victim(set)
		}
		if si != probed && !m.cfg.BlindMirrors && set[v].valid {
			continue // no spare way: skip the prefetch, keep live entries
		}
		if set[v].valid && m.sink != nil {
			m.reportEviction(&set[v])
		}
		set[v] = *bundle
		set[v].stamp = m.clock
		cost.SetsFilled++
		cost.EntriesWritten++
		if si != probed {
			m.stats.MirrorWrites++
		}
	}
	return cost
}

// Promote implements tlb.Promoter: an L1 refill served by an L2 hit fills
// only the probed set — no mirroring, since re-mirroring on every
// promotion would churn the other sets — but coalesces the L2 entry's
// member translations (line) so bundle reach survives the promotion path.
// PromoteFrom does the same without the expanded line whenever the hit
// level is itself a MIX TLB; Promote remains the path from other designs
// (a victim level, say) and for wrappers that hide PromoteFrom.
func (m *MixTLB) Promote(req tlb.Request, t pagetable.Translation, line []pagetable.Translation) tlb.Cost {
	if !t.Valid() {
		return tlb.Cost{}
	}
	m.clock++
	if t.Size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		return m.fillPlain(req.VA, t)
	}
	if len(line) == 0 {
		line = []pagetable.Translation{t}
	}
	b := m.buildBundle(t, line)
	return m.promoteBundle(req.VA, &b)
}

// PromoteFrom implements tlb.BundlePromoter: the promotion Promote would
// make from src's expanded Members, read straight off src's bundle. This
// TLB's K-aligned window is clipped out of the source entry's presence
// and dirty slots with shift and mask, and the physical base moves by the
// window's offset. It declines (false) wherever it could not reproduce
// buildBundle over the expanded members exactly: src is not a MIX TLB,
// either side drops the alignment restriction, src's window is narrower
// than this TLB's, the source entry is a plain 4KB entry, or t is not the
// member src holds (a silently corrupted hit).
func (m *MixTLB) PromoteFrom(req tlb.Request, t pagetable.Translation, src tlb.TLB) (tlb.Cost, bool) {
	if !t.Valid() || (t.Size == addr.Page4K && m.cfg.SmallCoalesce == 0) {
		return m.Promote(req, t, nil), true // these paths never read the line
	}
	s, ok := src.(*MixTLB)
	if !ok || m.cfg.NoAlignmentRestriction || s.cfg.NoAlignmentRestriction {
		return tlb.Cost{}, false
	}
	e, slot := s.find(req.VA)
	k := m.coalesceLimit(t.Size)
	if e == nil || int(e.k) < k || t != s.memberTranslation(e, slot) {
		return tlb.Cost{}, false
	}
	off := slot &^ (k - 1) // source slot of this TLB's window slot 0
	srcPresent, srcDirty := e.slots(s.cfg.Encoding), e.dirtySlots()
	present, dirty := srcPresent.window(off, k), srcDirty.window(off, k)
	window, _ := windowOf(t.VA.PageNum(t.Size), uint64(k))
	b := entry{
		valid: true, size: t.Size, k: uint16(k), window: window,
		basePA: e.basePA + addr.P(uint64(off)<<t.Size.Shift()), perm: t.Perm,
	}
	m.finishBundle(&b, slot-off, &present, &dirty)
	m.clock++
	return m.promoteBundle(req.VA, &b), true
}

// promoteBundle fills a promoted bundle into the probed set only.
func (m *MixTLB) promoteBundle(va addr.V, b *entry) tlb.Cost {
	m.targets = append(m.targets[:0], m.setIndex(va))
	return m.fillBundle(va, b, m.targets)
}

// Members implements tlb.BundleProvider: expand the entry covering va
// into its member translations. The MMU calls it only for an upper level
// without PromoteFrom or one that declines, so it is the promotion
// payload of heterogeneous hierarchies (a split L1 over a MIX L2).
func (m *MixTLB) Members(va addr.V) []pagetable.Translation {
	e, _ := m.find(va)
	if e == nil {
		return nil
	}
	// Reuse the scratch slice: the promotion path consumes the members
	// before the next Lookup/Fill on this TLB.
	out := m.members[:0]
	if e.k == 0 {
		out = append(out, pagetable.Translation{
			VA: va.PageBase(addr.Page4K), PA: e.pa, Size: addr.Page4K,
			Perm: e.perm, Accessed: true, Dirty: e.dirty,
		})
	} else {
		for s := 0; s < int(e.k); s++ {
			if e.memberPresent(m.cfg.Encoding, s) {
				out = append(out, m.memberTranslation(e, s))
			}
		}
	}
	m.members = out[:0]
	return out
}

// victim picks a replacement way: invalid first, else LRU.
func (m *MixTLB) victim(set []entry) int {
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].stamp < oldest {
			victim, oldest = i, set[i].stamp
		}
	}
	return victim
}

// mergeIntoExisting folds the new bundle into a compatible entry already
// present in the set, implementing the incremental extension of Sec 4.2:
// later misses on superpages adjacent to a cached bundle coalesce into it.
// When nothing merges it returns the way victim would pick, found in the
// same pass over the set.
func (m *MixTLB) mergeIntoExisting(set []entry, b *entry, refreshStamp bool) (bool, int) {
	invalid, lru, oldest := -1, 0, ^uint64(0)
	for i := range set {
		e := &set[i]
		if !e.valid {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if e.window == b.window && e.basePA == b.basePA && e.size == b.size && e.k == b.k &&
			e.perm == b.perm && m.mergeMembers(e, b) {
			e.dirty = e.dirty && b.dirty
			if refreshStamp {
				e.stamp = m.clock
			}
			return true, i
		}
		if e.stamp < oldest {
			lru, oldest = i, e.stamp
		}
	}
	if invalid >= 0 {
		return false, invalid
	}
	return false, lru
}

// buildBundle assembles a bundle entry for tr by scanning line (the
// walked PTE cache line, or a promotion's source members) for coalescable
// neighbours: same page size and permissions, accessed bit set (x86 fill
// rule, Sec 4.4), and both virtually and physically contiguous with tr's
// implied window placement.
func (m *MixTLB) buildBundle(tr pagetable.Translation, line []pagetable.Translation) entry {
	size := tr.Size
	shift := size.Shift()
	svn := tr.VA.PageNum(size)
	k := uint64(m.coalesceLimit(size))

	var window uint64
	var slot int
	if m.cfg.NoAlignmentRestriction {
		// Anchor the window at the start of the maximal contiguous run
		// containing tr (bounded to K members), instead of an aligned
		// boundary.
		window, slot = m.runAnchor(tr, line, int(k))
	} else {
		window, slot = windowOf(svn, k)
	}
	var baseSVN uint64
	if m.cfg.NoAlignmentRestriction {
		baseSVN = window
	} else {
		baseSVN = window * k
	}
	basePA := tr.PA - addr.P(uint64(slot)<<shift)

	// Collect qualifying window slots. Walk lines carry 8 PTEs, or 16 on
	// ISAs with NAPOT/contiguous blocks; a promotion's line is the source
	// bundle's members, up to its K. Any of them may land anywhere in the
	// window, and the first copy of a slot wins.
	var present, dirty slotSet
	present.add(slot)
	if tr.Dirty {
		dirty.add(slot)
	}
	for _, n := range line {
		if n.Size != size || n.VA == tr.VA || !n.Accessed || n.Perm != tr.Perm {
			continue
		}
		nsvn := n.VA.PageNum(size)
		if nsvn < baseSVN || nsvn >= baseSVN+k {
			continue
		}
		i := int(nsvn - baseSVN)
		if n.PA != basePA+addr.P(uint64(i)<<shift) {
			continue // not physically contiguous with the bundle base
		}
		if !present.has(i) {
			present.add(i)
			if n.Dirty {
				dirty.add(i)
			}
		}
	}
	e := entry{valid: true, size: size, k: uint16(k), window: window, basePA: basePA, perm: tr.Perm}
	m.finishBundle(&e, slot, &present, &dirty)
	return e
}

// finishBundle completes bundle e, whose window, base and permissions are
// set, from its present slots and the subset known dirty; slot is the
// demanded member. The bundle is dirty only when every member is.
// Line-granular dirty knowledge is seeded too: a slot group whose present
// members are all dirty starts exempt from dirty micro-ops (unaligned
// bundles skip this, as their groups would not correspond to PTE cache
// lines). The bitmap encoding keeps every member and counts holes; the
// range encoding keeps the maximal run through slot and counts the
// truncation. Dirty state is judged over every present member, including
// those a range drops.
func (m *MixTLB) finishBundle(e *entry, slot int, present, dirty *slotSet) {
	clean := present.andNot(dirty)
	e.dirty = clean == slotSet{}
	if !m.cfg.NoDirtyGroups && !m.cfg.NoAlignmentRestriction {
		e.dgroups = present.groups() &^ clean.groups()
	}
	lo, hi := present.runAround(slot)
	holes := present.count() > hi-lo+1
	switch m.cfg.Encoding {
	case Bitmap:
		e.bitmap = present[0]
		if holes {
			m.stats.HolesRepresent++
		}
	case Range:
		e.start, e.length = uint16(lo), uint16(hi-lo+1)
		if holes {
			m.stats.RangeTruncation++
		}
	}
}

// runAnchor finds the base superpage number and tr's slot for the
// unaligned-bundle ablation: extend downward and upward from tr through
// the line while VA and PA stay contiguous, capping the run at K.
func (m *MixTLB) runAnchor(tr pagetable.Translation, line []pagetable.Translation, k int) (uint64, int) {
	size := tr.Size
	shift := size.Shift()
	present := make(map[uint64]pagetable.Translation, len(line))
	for _, n := range line {
		if n.Size == size && n.Accessed && n.Perm == tr.Perm {
			present[n.VA.PageNum(size)] = n
		}
	}
	svn := tr.VA.PageNum(size)
	base := svn
	for base > 0 {
		prev, ok := present[base-1]
		if !ok || svn-base+1 >= uint64(k) {
			break
		}
		cur := present[base]
		if prev.PA+addr.P(uint64(1)<<shift) != cur.PA {
			break
		}
		base--
	}
	return base, int(svn - base)
}

// mirrorTargets lists the set indices the bundle must be written to: the
// sets indexed by the 4KB regions the bundle's present members span. For
// 2MB/1GB pages under small-page indexing that is every set (N >= M,
// Sec 3); the list degenerates under the superpage-index ablation or
// MirrorProbedSetOnly.
func (m *MixTLB) mirrorTargets(probeVA addr.V, b *entry) []int {
	if m.cfg.MirrorProbedSetOnly {
		return append(m.targets[:0], m.setIndex(probeVA))
	}
	shift := b.size.Shift()
	var baseSVN uint64
	if m.cfg.NoAlignmentRestriction {
		baseSVN = b.window
	} else {
		baseSVN = b.window * uint64(b.k)
	}
	lo, hi := memberBounds(b, m.cfg.Encoding)
	baseVA := (baseSVN + uint64(lo)) << shift
	spanBytes := uint64(hi-lo+1) << shift
	granules := spanBytes >> m.cfg.IndexShift
	if granules == 0 {
		granules = 1
	}
	if granules >= uint64(m.cfg.Sets) {
		return m.allSets
	}
	// granules < Sets, so the consecutive indices below are distinct
	// modulo Sets — no dedup needed.
	first := int((baseVA >> m.cfg.IndexShift) & m.setMask)
	out := m.targets[:0]
	for g := uint64(0); g < granules; g++ {
		out = append(out, (first+int(g))&int(m.setMask))
	}
	m.targets = out
	return out
}

// memberBounds returns the lowest and highest present slot of a bundle.
func memberBounds(e *entry, enc Encoding) (lo, hi int) {
	if enc == Bitmap {
		return bits.TrailingZeros64(e.bitmap), 63 - bits.LeadingZeros64(e.bitmap)
	}
	return int(e.start), int(e.start) + int(e.length) - 1
}

// RefreshDirty implements tlb.DirtyRefresher: the dirty micro-op's assist
// just wrote one member's PTE D bit and read the surrounding cache line,
// so the design can re-derive the dirty state of the member's whole slot
// group (exactly that line) for free. When every present member of the
// group is dirty, the group's bit is set and future stores to it skip the
// micro-op. Under NoDirtyGroups (the paper's literal single-bit policy),
// only singleton bundles can be marked, as in MarkDirty.
func (m *MixTLB) RefreshDirty(va addr.V, line []pagetable.Translation) bool {
	e, slot := m.find(va)
	if e == nil {
		return false
	}
	if e.k == 0 { // plain 4KB entry
		e.dirty = true
		return true
	}
	if m.cfg.NoDirtyGroups || m.cfg.NoAlignmentRestriction {
		if e.memberCount(m.cfg.Encoding) == 1 {
			e.dirty = true
			return true
		}
		return false
	}
	base := m.baseSVN(e)
	g := slot / 8
	sizeShift := e.size.Shift()
	all := true
	for s := 8 * g; s < 8*g+8 && s < int(e.k); s++ {
		if !e.memberPresent(m.cfg.Encoding, s) {
			continue
		}
		// Scan the (≤8-entry) line for this member's PTE directly; a
		// per-call map would allocate on the store hot path.
		want := base + uint64(s)
		dirty, found := false, false
		for _, n := range line {
			if n.Size == e.size && uint64(n.VA)>>sizeShift == want {
				dirty, found = n.Dirty, true
				break
			}
		}
		if !found || !dirty {
			all = false
			break
		}
	}
	if all {
		e.dgroups |= 1 << g
	}
	return all
}

// MarkDirty implements tlb.TLB with the conservative policy of Sec 4.4: a
// bundle's dirty bit may only be set when every member is known dirty,
// which the hardware can only be sure of for single-member bundles. Stores
// through multi-member bundles therefore always inject the PTE update
// micro-op.
func (m *MixTLB) MarkDirty(va addr.V) bool {
	e, _ := m.find(va)
	if e == nil || (e.k != 0 && e.memberCount(m.cfg.Encoding) != 1) {
		return false
	}
	e.dirty = true
	return true
}

// Invalidate implements tlb.TLB. 4KB entries live in exactly one set and
// are dropped there. Superpage members may be mirrored anywhere, so every
// set is visited (invalidations are software-initiated and rare, Sec 4.4):
// bitmap bundles clear the member's bit, keeping neighbours cached; range
// bundles drop the whole coalesced entry — the paper's simple option.
func (m *MixTLB) Invalidate(va addr.V, size addr.PageSize) int {
	n := 0
	if size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		set := m.data[m.setIndex(va)]
		for i := range set {
			e := &set[i]
			if e.valid && e.size == addr.Page4K && e.vpn == va.VPN4K() {
				e.valid = false
				n++
			}
		}
		return n
	}
	for _, set := range m.data {
		for i := range set {
			e := &set[i]
			if !e.valid || e.size != size || e.k == 0 {
				continue
			}
			slot, ok := m.slotOf(e, va)
			if !ok || !e.memberPresent(m.cfg.Encoding, slot) {
				continue
			}
			n++
			if m.cfg.Encoding == Bitmap {
				e.bitmap &^= 1 << slot
				if e.bitmap == 0 {
					e.valid = false
				}
			} else {
				e.valid = false
			}
		}
	}
	return n
}

// ScrubCorrupt implements tlb.Scrubber: drop the entry (and any mirrors)
// covering va after a detected parity error. Unlike a software
// invalidation, a scrub cannot trust the corrupted entry's contents, so
// the full member bundle is discarded rather than a single member bit.
func (m *MixTLB) ScrubCorrupt(va addr.V, size addr.PageSize) int {
	n := 0
	for _, set := range m.data {
		for i := range set {
			e := &set[i]
			if !e.valid || e.size != size {
				continue
			}
			match := false
			if e.k == 0 {
				match = size == addr.Page4K && e.vpn == va.VPN4K()
			} else if slot, ok := m.slotOf(e, va); ok {
				match = e.memberPresent(m.cfg.Encoding, slot)
			}
			if match {
				e.valid = false
				n++
			}
		}
	}
	m.stats.CorruptionScrubs += uint64(n)
	return n
}

// Flush implements tlb.TLB.
func (m *MixTLB) Flush() {
	for _, set := range m.data {
		for i := range set {
			set[i].valid = false
		}
	}
}
