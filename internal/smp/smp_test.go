package smp

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

func newSMP(t *testing.T, design mmu.Design, cores int) (*System, *osmm.AddressSpace, addr.V, uint64) {
	t.Helper()
	return newSMPWith(t, design, cores, cachesim.DefaultHierarchy())
}

// newSMPWith is newSMP over a caller-supplied cache hierarchy.
func newSMPWith(t *testing.T, design mmu.Design, cores int, caches *cachesim.Hierarchy) (*System, *osmm.AddressSpace, addr.V, uint64) {
	t.Helper()
	phys := physmem.NewBuddy(1 << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS})
	if err != nil {
		t.Fatal(err)
	}
	const fp = 256 << 20
	base, err := as.Mmap(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(base, fp); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Cores: cores, Design: design}, as, caches)
	if err != nil {
		t.Fatal(err)
	}
	return sys, as, base, fp
}

func TestRunInterleavesCores(t *testing.T) {
	s, _, base, fp := newSMP(t, mmu.DesignMix, 4)
	streams := make([]workload.Stream, 4)
	for i := range streams {
		streams[i] = workload.NewSequential(base+addr.V(uint64(i)*fp/4), fp/4, 4096, false, uint64(i))
	}
	if err := s.Run(streams, 40000); err != nil {
		t.Fatal(err)
	}
	agg := s.Aggregate()
	if agg.Accesses != 40000 {
		t.Errorf("aggregate accesses = %d", agg.Accesses)
	}
	for i, c := range s.Cores() {
		if c.Stats().Accesses != 10000 {
			t.Errorf("core %d accesses = %d", i, c.Stats().Accesses)
		}
	}
}

func TestRunStreamMismatch(t *testing.T) {
	s, _, _, _ := newSMP(t, mmu.DesignSplit, 2)
	if err := s.Run(nil, 10); err == nil {
		t.Error("mismatched streams accepted")
	}
}

func TestMunmapShootsDownAllCores(t *testing.T) {
	s, as, base, _ := newSMP(t, mmu.DesignMix, 3)
	// Warm every core's TLB on the first 8MB.
	for c := 0; c < 3; c++ {
		for off := uint64(0); off < 8<<20; off += addr.Size4K {
			s.Translate(c, tlb.Request{VA: base + addr.V(off)})
		}
	}
	s.ResetStats()
	// Re-touch: all hits.
	for c := 0; c < 3; c++ {
		if r := s.Translate(c, tlb.Request{VA: base}); !r.L1Hit && !r.L2Hit {
			t.Fatalf("core %d not warm", c)
		}
	}
	s.Munmap(base, 4<<20)
	st := s.Stats()
	if st.Shootdowns != 2 { // two 2MB translations
		t.Errorf("shootdowns = %d", st.Shootdowns)
	}
	if st.IPIs != 6 {
		t.Errorf("IPIs = %d", st.IPIs)
	}
	// The unmapped range faults (OS remaps on demand); the surviving
	// range still hits.
	if _, ok := as.PageTable().Lookup(base); ok {
		t.Fatal("mapping survived munmap")
	}
	for c := 0; c < 3; c++ {
		r := s.Translate(c, tlb.Request{VA: base + addr.V(6<<20)})
		if !r.L1Hit && !r.L2Hit {
			t.Errorf("core %d lost an unrelated translation", c)
		}
	}
	// Remapped-on-demand region yields fresh frames, not stale PAs.
	r := s.Translate(0, tlb.Request{VA: base})
	tr, ok := as.PageTable().Lookup(base)
	if !ok || r.PA != tr.Translate(base) {
		t.Errorf("stale translation after shootdown: got %v want %v", r.PA, tr.Translate(base))
	}
}

// TestShootdownCorrectnessUnderRemap is the safety property: after
// munmap+remap with concurrent traffic, no core may ever return a stale
// physical address.
func TestShootdownCorrectnessUnderRemap(t *testing.T) {
	for _, design := range []mmu.Design{mmu.DesignSplit, mmu.DesignMix, mmu.DesignMixColt} {
		s, as, base, _ := newSMP(t, design, 2)
		rng := simrand.New(9)
		for round := 0; round < 30; round++ {
			// Random traffic on both cores.
			for i := 0; i < 500; i++ {
				va := base + addr.V(rng.Uint64n(64<<20)&^7)
				core := int(rng.Uint64n(2))
				r := s.Translate(core, tlb.Request{VA: va, Write: rng.Bool(0.3)})
				tr, ok := as.PageTable().Lookup(va)
				if !ok {
					t.Fatalf("%s: unmapped VA %v survived", design, va)
				}
				if r.PA != tr.Translate(va) {
					t.Fatalf("%s: stale PA for %v: got %v want %v", design, va, r.PA, tr.Translate(va))
				}
			}
			// Unmap a random 4MB chunk; it demand-remaps on next touch.
			off := rng.Uint64n(60<<20) &^ (addr.Size2M - 1)
			s.Munmap(base+addr.V(off), 4<<20)
		}
	}
}

func TestBitmapInvalidationKeepsNeighbours(t *testing.T) {
	// The Sec 4.4 contrast at system level: after unmapping one 2MB page
	// out of a coalesced run, a bitmap-encoded MIX TLB still hits on the
	// neighbouring superpages without re-walking.
	s, _, base, _ := newSMP(t, mmu.DesignMix, 1)
	for off := uint64(0); off < 16<<20; off += addr.Size4K {
		s.Translate(0, tlb.Request{VA: base + addr.V(off)})
	}
	s.ResetStats()
	s.Munmap(base+addr.V(2<<20), 2<<20)        // kill the second superpage
	r := s.Translate(0, tlb.Request{VA: base}) // neighbour
	if !r.L1Hit {
		t.Errorf("neighbour of invalidated member missed: %+v", r)
	}
}
