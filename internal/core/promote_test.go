package core

import (
	"math/bits"
	"reflect"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// refGroupHasMembers is the per-group membership test that groupMask
// replaced, kept as the reference.
func refGroupHasMembers(enc Encoding, e *entry, g int) bool {
	if enc == Bitmap {
		return e.bitmap&(uint64(0xff)<<(8*g)) != 0
	}
	lo, hi := int(e.start), int(e.start)+int(e.length)
	return e.length > 0 && lo < 8*g+8 && hi > 8*g
}

// refMergedDirtyGroups is the per-group loop that mergeMembers' mask
// arithmetic replaced, kept as the reference: a group remains
// known-all-dirty only when every contributor with members there had it
// marked, and the merged entry actually has members there.
func refMergedDirtyGroups(enc Encoding, a, b, merged *entry) uint32 {
	var out uint32
	for g := 0; g < (int(merged.k)+7)/8; g++ {
		okA := a.dgroups&(1<<g) != 0 || !refGroupHasMembers(enc, a, g) || a.dirty
		okB := b.dgroups&(1<<g) != 0 || !refGroupHasMembers(enc, b, g) || b.dirty
		if okA && okB && refGroupHasMembers(enc, merged, g) {
			out |= 1 << g
		}
	}
	return out
}

// randomBundle draws a bundle of capacity k with random members, dirty
// groups (only over groups that exist) and whole-bundle dirty bit. Member
// sets favour the extremes — empty, full, a single run — as well as
// random bitmaps.
func randomBundle(rng *simrand.Source, enc Encoding, k int) entry {
	e := entry{valid: true, size: addr.Page2M, k: uint16(k), dirty: rng.Bool(0.2)}
	e.dgroups = uint32(rng.Uint64()) & uint32(uint64(1)<<((k+7)/8)-1)
	if enc == Bitmap {
		mask := ^uint64(0) >> (64 - k)
		switch rng.Intn(4) {
		case 0:
			e.bitmap = 0
		case 1:
			e.bitmap = mask
		default:
			e.bitmap = rng.Uint64() & rng.Uint64() & mask
		}
		return e
	}
	if rng.Bool(0.1) {
		return e // length 0: an unused range
	}
	start := rng.Intn(k)
	e.start, e.length = uint16(start), uint16(1+rng.Intn(k-start))
	return e
}

// refMergeMembers is mergeMembers as it was before its dirty-group
// arithmetic became masks, kept as the reference.
func refMergeMembers(enc Encoding, a, b entry) (entry, bool) {
	before := a
	if enc == Bitmap {
		a.bitmap |= b.bitmap
		a.dgroups = refMergedDirtyGroups(enc, &before, &b, &a)
		return a, true
	}
	aStart, aEnd := int(a.start), int(a.start)+int(a.length)
	bStart, bEnd := int(b.start), int(b.start)+int(b.length)
	if b.length == 0 {
		return a, true
	}
	if a.length == 0 {
		a.start, a.length = b.start, b.length
		return a, true
	}
	if bStart <= aEnd && aStart <= bEnd {
		a.start, a.length = uint16(min(aStart, bStart)), uint16(max(aEnd, bEnd)-min(aStart, bStart))
		a.dgroups = refMergedDirtyGroups(enc, &before, &b, &a)
		return a, true
	}
	return a, false
}

// TestMergedDirtyGroupsProperty holds groupMask and mergeMembers' dirty
// group arithmetic to the per-group loops they replaced, over random
// bitmap bundles (K <= 64) and range bundles up to K = 256.
func TestMergedDirtyGroupsProperty(t *testing.T) {
	rng := simrand.New(0x6d61736b)
	for _, enc := range []Encoding{Bitmap, Range} {
		maxK := 64
		if enc == Range {
			maxK = 256
		}
		m := mustNew(Config{Name: "prop", Sets: 1, Ways: 1, Coalesce: maxK, Encoding: enc})
		merges := 0
		for i := 0; i < 20000; i++ {
			k := min(1<<rng.Intn(9), maxK)
			a, b := randomBundle(rng, enc, k), randomBundle(rng, enc, k)
			for g := 0; g < 32; g++ {
				if got, want := a.groupMask(enc)&(1<<g) != 0, refGroupHasMembers(enc, &a, g); got != want {
					t.Fatalf("%v K=%d %+v: groupMask group %d = %v, want %v", enc, k, a, g, got, want)
				}
			}
			want, wantOK := refMergeMembers(enc, a, b)
			got := a
			if ok := m.mergeMembers(&got, &b); ok != wantOK || got != want {
				t.Fatalf("%v K=%d merge(%+v, %+v) = %+v, %v; want %+v, %v", enc, k, a, b, got, ok, want, wantOK)
			}
			if wantOK && want.dgroups != 0 {
				merges++
			}
		}
		if merges < 1000 {
			t.Errorf("%v: only %d merges kept a dirty group", enc, merges)
		}
	}
}

// TestSlotSetWordOps checks the slot-set word operations against per-slot
// loops over random sets spanning all four words.
func TestSlotSetWordOps(t *testing.T) {
	rng := simrand.New(0x736c6f74)
	for i := 0; i < 5000; i++ {
		var s slotSet
		var ref [256]bool
		for r := rng.Intn(6); r >= 0; r-- {
			lo := rng.Intn(256)
			n := rng.Intn(256 - lo + 1)
			s.addRange(lo, n)
			for j := lo; j < lo+n; j++ {
				ref[j] = true
			}
		}
		count, groups := 0, uint32(0)
		for j, p := range ref {
			if s.has(j) != p {
				t.Fatalf("slot %d: has = %v, want %v", j, s.has(j), p)
			}
			if p {
				count++
				groups |= 1 << (j / 8)
			}
		}
		if s.count() != count || s.groups() != groups {
			t.Fatalf("%x: count %d groups %#x, want %d %#x", s, s.count(), s.groups(), count, groups)
		}
		g := uint32(rng.Uint64())
		if gs := groupSlots(g); gs.groups() != g || gs.count() != 8*bits.OnesCount32(g) {
			t.Fatalf("groupSlots(%#x) = %x", g, gs)
		}
		k := 1 << rng.Intn(9)
		off := rng.Intn(256/k) * k
		w := s.window(off, k)
		for j := 0; j < 256; j++ {
			if want := j < k && ref[off+j]; w.has(j) != want {
				t.Fatalf("window(%d, %d) slot %d = %v, want %v", off, k, j, w.has(j), want)
			}
		}
		slot := rng.Intn(256)
		if !ref[slot] {
			continue
		}
		lo, hi := slot, slot
		for lo > 0 && ref[lo-1] {
			lo--
		}
		for hi < 255 && ref[hi+1] {
			hi++
		}
		if gl, gh := s.runAround(slot); gl != lo || gh != hi {
			t.Fatalf("runAround(%d) = [%d, %d], want [%d, %d]", slot, gl, gh, lo, hi)
		}
	}
}

// promoteCase pairs an upper MIX level with the source level it promotes
// from. native says whether PromoteFrom must ever accept.
type promoteCase struct {
	name     string
	up, src  Config
	native   bool
	sizes    []addr.PageSize
	lineSpan int // PTEs per walked line
}

func promoteCases() []promoteCase {
	super := []addr.PageSize{addr.Page2M, addr.Page2M, addr.Page1G, addr.Page4K}
	small := []addr.PageSize{addr.Page4K, addr.Page4K, addr.Page2M}
	rangeL1 := Config{Name: "range-L1", Sets: 16, Ways: 4, Coalesce: 128, Encoding: Range}
	rangeL2 := Config{Name: "range-L2", Sets: 32, Ways: 4, Coalesce: 256, Encoding: Range}
	narrow := Config{Name: "narrow-L2", Sets: 64, Ways: 8, Coalesce: 8}
	unaligned := L1Config()
	unaligned.NoAlignmentRestriction = true
	unalignedL2 := L2Config()
	unalignedL2.NoAlignmentRestriction = true
	noGroups := L1Config()
	noGroups.NoDirtyGroups = true
	coltL1 := Config{Name: "colt-L1", Sets: 16, Ways: 6, Coalesce: 16, SmallCoalesce: 4}
	coltL2 := Config{Name: "colt-L2", Sets: 64, Ways: 8, Coalesce: 64, SmallCoalesce: 8}
	return []promoteCase{
		{"bitmap/bitmap", L1Config(), L2Config(), true, super, 8},
		{"bitmap/range", L1Config(), L2RangeConfig(), true, super, 16},
		{"range/range", rangeL1, rangeL2, true, super, 16},
		{"nodirtygroups/bitmap", noGroups, L2Config(), true, super, 8},
		{"colt/colt", coltL1, coltL2, true, small, 8},
		{"colt/plain", coltL1, L2Config(), true, small, 8},
		{"wide/narrow", L2Config(), narrow, true, super, 8},
		{"unaligned/bitmap", unaligned, L2Config(), false, super[:3], 8},
		{"bitmap/unaligned", L1Config(), unalignedL2, false, super[:3], 8},
	}
}

// promoteWalk fabricates a walk for a random page of size sz near the
// bottom of its size's VA range: the PTE line around it has random
// presence, accessed and dirty bits, an occasional permission change, and
// an occasional physical discontinuity, so bundles come out with holes,
// truncated runs, and mixed dirty state.
func promoteWalk(rng *simrand.Source, sz addr.PageSize, span int) pagetable.WalkResult {
	base := map[addr.PageSize]uint64{addr.Page4K: 1 << 24, addr.Page2M: 1 << 14, addr.Page1G: 1 << 5}[sz]
	svn := base + rng.Uint64n(1024)
	mk := func(n uint64) pagetable.Translation {
		t := tr(n, n+base<<2, sz)
		t.Dirty = rng.Bool(0.6)
		if rng.Bool(0.03) {
			t.PA += addr.P(sz.Bytes()) // breaks physical contiguity
		}
		if rng.Bool(0.03) {
			t.Perm = addr.PermRead
		}
		return t
	}
	demand := mk(svn)
	line := []pagetable.Translation{demand}
	first := svn &^ uint64(span-1)
	for n := first; n < first+uint64(span); n++ {
		if n == svn || !rng.Bool(0.7) {
			continue
		}
		t := mk(n)
		t.Accessed = rng.Bool(0.9)
		line = append(line, t)
	}
	return pagetable.WalkResult{Found: true, Translation: demand, Line: line}
}

// TestPromoteFromMatchesPromote is the core-level differential for native
// promotion: two identical upper levels follow the same random fills,
// invalidations and dirty updates, and every source hit is promoted into
// one with PromoteFrom and into the other with Members and Promote — the
// path the MMU takes without PromoteFrom. Costs, entries and statistics
// must match exactly; a declined PromoteFrom must leave its level
// untouched. Hits are occasionally corrupted the way chaos injection
// flips a physical address bit.
func TestPromoteFromMatchesPromote(t *testing.T) {
	for _, pc := range promoteCases() {
		t.Run(pc.name, func(t *testing.T) {
			rng := simrand.New(0x70726f6d)
			native, fallback, src := mustNew(pc.up), mustNew(pc.up), mustNew(pc.src)
			same := func(step int, what string) {
				t.Helper()
				if native.clock != fallback.clock || native.stats != fallback.stats || !reflect.DeepEqual(native.data, fallback.data) {
					t.Fatalf("step %d (%s): native and fallback levels diverged\nnative stats %+v\nfallback stats %+v",
						step, what, native.stats, fallback.stats)
				}
			}
			accepted, declined := 0, 0
			for step := 0; step < 20000; step++ {
				sz := pc.sizes[rng.Intn(len(pc.sizes))]
				w := promoteWalk(rng, sz, pc.lineSpan)
				va := w.Translation.VA + addr.V(rng.Uint64n(sz.Bytes()))
				req := tlb.Request{VA: va}
				switch op := rng.Intn(20); {
				case op < 6:
					src.Fill(req, w)
				case op < 8:
					native.Fill(req, w)
					fallback.Fill(req, w)
				case op < 9:
					src.Invalidate(va, sz)
					native.Invalidate(va, sz)
					fallback.Invalidate(va, sz)
				case op < 11:
					src.RefreshDirty(va, w.Line)
					native.RefreshDirty(va, w.Line)
					fallback.RefreshDirty(va, w.Line)
				case op < 12:
					src.MarkDirty(va)
					native.MarkDirty(va)
					fallback.MarkDirty(va)
				default:
					r := src.Lookup(req)
					if !r.Hit {
						continue
					}
					if rng.Bool(0.05) {
						r.T.PA ^= addr.P(sz.Bytes()) << rng.Intn(4) // silent corruption
					}
					c, ok := native.PromoteFrom(req, r.T, src)
					if !ok {
						declined++
						same(step, "declined")
						c = native.Promote(req, r.T, promotionLine(src, va, r.T))
					} else {
						accepted++
					}
					if fc := fallback.Promote(req, r.T, promotionLine(src, va, r.T)); fc != c {
						t.Fatalf("step %d: native cost %+v, fallback cost %+v", step, c, fc)
					}
					same(step, "promoted")
				}
			}
			if pc.native && (accepted == 0 || declined == 0) {
				t.Errorf("PromoteFrom accepted %d and declined %d promotions; want both paths exercised", accepted, declined)
			}
			if !pc.native && accepted != 0 {
				t.Errorf("PromoteFrom accepted %d promotions it cannot reproduce", accepted)
			}
		})
	}
}

// promotionLine is the line the MMU hands Promote: the source's members
// of the hit entry, or the hit translation alone.
func promotionLine(src *MixTLB, va addr.V, t pagetable.Translation) []pagetable.Translation {
	if members := src.Members(va); len(members) > 0 {
		return members
	}
	return []pagetable.Translation{t}
}
