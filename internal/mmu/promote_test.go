package mmu

import (
	"os"
	"reflect"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/chaos"
	"mixtlb/internal/core"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// fallbackMix passes every call through to a MIX level and implements
// exactly the optional interfaces *core.MixTLB does except
// tlb.BundlePromoter — the shape of a tracing wrapper. An MMU over it
// promotes through Members and Promote instead of PromoteFrom.
type fallbackMix struct{ m *core.MixTLB }

var (
	_ tlb.Promoter         = fallbackMix{}
	_ tlb.BundleProvider   = fallbackMix{}
	_ tlb.DirtyRefresher   = fallbackMix{}
	_ tlb.Scrubber         = fallbackMix{}
	_ tlb.ReplayConsistent = fallbackMix{}
	_ tlb.EvictionNotifier = fallbackMix{}
)

func (f fallbackMix) Name() string                                 { return f.m.Name() }
func (f fallbackMix) Entries() int                                 { return f.m.Entries() }
func (f fallbackMix) Flush()                                       { f.m.Flush() }
func (f fallbackMix) Lookup(req tlb.Request) tlb.Result            { return f.m.Lookup(req) }
func (f fallbackMix) MarkDirty(va addr.V) bool                     { return f.m.MarkDirty(va) }
func (f fallbackMix) Invalidate(va addr.V, size addr.PageSize) int { return f.m.Invalidate(va, size) }
func (f fallbackMix) ScrubCorrupt(va addr.V, s addr.PageSize) int  { return f.m.ScrubCorrupt(va, s) }
func (f fallbackMix) LookupReplayConsistent() bool                 { return f.m.LookupReplayConsistent() }
func (f fallbackMix) SetEvictionSink(sink tlb.EvictionSink)        { f.m.SetEvictionSink(sink) }
func (f fallbackMix) Members(va addr.V) []pagetable.Translation    { return f.m.Members(va) }

func (f fallbackMix) Fill(req tlb.Request, walk pagetable.WalkResult) tlb.Cost {
	return f.m.Fill(req, walk)
}

func (f fallbackMix) Promote(req tlb.Request, t pagetable.Translation, line []pagetable.Translation) tlb.Cost {
	return f.m.Promote(req, t, line)
}

func (f fallbackMix) RefreshDirty(va addr.V, line []pagetable.Translation) bool {
	return f.m.RefreshDirty(va, line)
}

// countingPromoter counts the promotions a level's PromoteFrom accepts.
type countingPromoter struct {
	inner    tlb.BundlePromoter
	accepted *int
}

func (c countingPromoter) PromoteFrom(req tlb.Request, t pagetable.Translation, src tlb.TLB) (tlb.Cost, bool) {
	cost, ok := c.inner.PromoteFrom(req, t, src)
	if ok {
		*c.accepted++
	}
	return cost, ok
}

// promoteDesigns is every MIX design: the registry's and the example
// design file's (among them a three-level MIX hierarchy, range-encoded
// L2s and a victim level behind MIX).
func promoteDesigns(t *testing.T) []DesignSpec {
	t.Helper()
	data, err := os.ReadFile("../../examples/designs.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []DesignSpec
	for _, s := range append(DefaultRegistry().Specs(), specs...) {
		for _, l := range s.Levels {
			if l.Kind == KindMix {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// promoteEnv maps a superpage-heavy footprint with explicit frames on a
// page table of the spec's ISA: 384 physically contiguous 2MB pages
// (bundles far beyond the L1's reach, so L2 hits promote), 64 2MB pages
// whose frames are shuffled and whose permissions vary (holes, broken
// runs), a 1GB page, and 1024 contiguous 4KB pages (4KB bundles under
// MIX+COLT, NAPOT blocks on SVNAPOT).
func promoteEnv(t *testing.T, isaName string) (*pagetable.PageTable, []mappedPage) {
	t.Helper()
	if isaName == "" {
		isaName = "x86-64"
	}
	d, err := isa.Lookup(isaName)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pagetable.NewISA(physmem.NewBuddy(1<<30), d)
	if err != nil {
		t.Fatal(err)
	}
	var mapped []mappedPage
	mapOne := func(va addr.V, pa addr.P, size addr.PageSize, perm addr.Perm) {
		if err := pt.Map(va, pa, size, perm); err != nil {
			t.Fatal(err)
		}
		mapped = append(mapped, mappedPage{va, size})
	}
	for i := 0; i < 384; i++ {
		va := addr.V(1<<33) + addr.V(i)<<21
		mapOne(va, addr.P(va), addr.Page2M, addr.PermRW)
	}
	rng := simrand.New(0x5c4a)
	for i, j := range rng.Perm(64) {
		perm := addr.PermRW
		if rng.Bool(0.1) {
			perm = addr.PermRead
		}
		mapOne(addr.V(1<<35)+addr.V(i)<<21, addr.P(1<<36)+addr.P(j)<<21, addr.Page2M, perm)
	}
	mapOne(addr.V(1)<<30, addr.P(1)<<30, addr.Page1G, addr.PermRW)
	for i := 0; i < 1024; i++ {
		va := addr.V(1<<34) + addr.V(i)<<12
		mapOne(va, addr.P(va), addr.Page4K, addr.PermRW)
	}
	return pt, mapped
}

// buildPromoteMMU builds spec over pt with chaos TLB and PTE corruption
// and an oracle attached. With hide set, every MIX level is wrapped in
// fallbackMix; otherwise each level's PromoteFrom acceptances are counted
// into accepted.
func buildPromoteMMU(t *testing.T, s DesignSpec, pt *pagetable.PageTable, hide bool, accepted *int) (*MMU, []*core.MixTLB) {
	t.Helper()
	cfg, err := s.BuildConfig(pt)
	if err != nil {
		t.Fatal(err)
	}
	var mixes []*core.MixTLB
	for i, l := range cfg.Levels {
		mt, ok := l.TLB.(*core.MixTLB)
		if !ok {
			continue
		}
		mixes = append(mixes, mt)
		if hide {
			cfg.Levels[i].TLB = fallbackMix{mt}
		}
	}
	m, err := New(cfg, pt, conservationHierarchy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.levels {
		if hide && m.levels[i].native != nil {
			t.Fatalf("level %d still exposes PromoteFrom", i)
		}
		if m.levels[i].native != nil {
			m.levels[i].native = countingPromoter{m.levels[i].native, accepted}
		}
	}
	m.InjectFaults(chaos.NewInjector(0xc4a05, chaos.Rates{TLBCorrupt: 0.002, SilentFrac: 0.5, PTECorrupt: 0.002}))
	m.AttachOracle(chaos.NewOracle(pt))
	return m, mixes
}

// TestPromoteNativeMatchesFallback is the differential test for
// bundle-native promotion: every MIX design is built twice — as is, and
// with every MIX level hiding PromoteFrom behind a pass-through wrapper —
// and one superpage-heavy stream with stores, chaos TLB/PTE corruption
// under an oracle, shootdowns and flushes drives both. Per-access
// Results, MMU Stats, per-level counters and every MIX level's own Stats
// must be identical, and the native build must actually promote natively.
func TestPromoteNativeMatchesFallback(t *testing.T) {
	for _, s := range promoteDesigns(t) {
		t.Run(s.Name, func(t *testing.T) {
			// Separate page tables: stores set PTE dirty bits that the
			// other MMU's walks would otherwise observe.
			pt, mapped := promoteEnv(t, s.ISA)
			fpt, _ := promoteEnv(t, s.ISA)
			reqs := randomRequests(0x9a7e, mapped, 30000)
			accepted := 0
			native, nativeMix := buildPromoteMMU(t, s, pt, false, &accepted)
			fallback, fallbackMix := buildPromoteMMU(t, s, fpt, true, nil)
			rng := simrand.New(0x5d)
			for i, r := range reqs {
				if rng.Bool(0.002) {
					p := mapped[rng.Intn(len(mapped))]
					native.Invalidate(p.va, p.size)
					fallback.Invalidate(p.va, p.size)
				}
				if rng.Bool(0.0002) {
					native.Flush()
					fallback.Flush()
				}
				if got, want := native.Translate(r), fallback.Translate(r); got != want {
					t.Fatalf("req %d (%+v): native %+v, fallback %+v", i, r, got, want)
				}
			}
			if ns, fs := native.Stats(), fallback.Stats(); ns != fs {
				t.Errorf("native stats %+v\nfallback stats %+v", ns, fs)
			}
			if nl, fl := native.LevelStats(), fallback.LevelStats(); !reflect.DeepEqual(nl, fl) {
				t.Errorf("native level stats %+v\nfallback level stats %+v", nl, fl)
			}
			for i := range nativeMix {
				if ns, fs := nativeMix[i].Stats(), fallbackMix[i].Stats(); ns != fs {
					t.Errorf("%s: native core stats %+v\nfallback core stats %+v", nativeMix[i].Name(), ns, fs)
				}
			}
			st := native.Stats()
			if st.L2Hits+st.DeepHits == 0 || st.DirtyMicroOps == 0 || st.ECC.SilentCorruptions == 0 || st.PTECorruptions == 0 {
				t.Errorf("stream missed a path: %+v", st)
			}
			if accepted == 0 && mixAboveMix(s) {
				t.Error("no promotion took the native path")
			}
		})
	}
}

// mixAboveMix reports whether some MIX level sits directly above another.
func mixAboveMix(s DesignSpec) bool {
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i-1].Kind == KindMix && s.Levels[i].Kind == KindMix {
			return true
		}
	}
	return false
}

// TestTranslateZeroAllocPromote extends TestTranslateZeroAlloc to the
// promotion path: over a run of physically contiguous 2MB mappings wider
// than the L1's reach, L2 bundle hits promote into the L1 and walk fills
// coalesce into resident bundles, and the steady-state loop must still
// allocate nothing.
func TestTranslateZeroAllocPromote(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, d := range []Design{DesignMix, DesignMixRange} {
		t.Run(string(d), func(t *testing.T) {
			e := newEnv(t)
			var mapped []mappedPage
			for i := 0; i < 768; i++ {
				va := addr.V(1<<33) + addr.V(i)<<21
				if err := e.pt.Map(va, addr.P(va), addr.Page2M, addr.PermRW); err != nil {
					t.Fatal(err)
				}
				mapped = append(mapped, mappedPage{va, addr.Page2M})
			}
			reqs := randomRequests(0x9a0, mapped, 4096)
			m := mustBuild(Build(d, e.pt, e.pt, e.caches, nil))
			for _, r := range reqs {
				m.Translate(r)
			}
			merges := func() (n uint64) {
				for _, l := range m.LevelTLBs() {
					n += l.(*core.MixTLB).Stats().CoalesceMerges
				}
				return n
			}
			before, mergesBefore := m.Stats(), merges()
			i := 0
			avg := testing.AllocsPerRun(20, func() {
				for j := 0; j < 256; j++ {
					m.Translate(reqs[i%len(reqs)])
					i++
				}
			})
			if avg != 0 {
				t.Errorf("Translate allocates %.2f times per 256 accesses with promotions", avg)
			}
			if after := m.Stats(); after.L2Hits == before.L2Hits {
				t.Error("measured loop promoted nothing: no L2 hits")
			}
			if merges() == mergesBefore {
				t.Error("measured loop coalesced nothing: no CoalesceMerges")
			}
		})
	}
}
