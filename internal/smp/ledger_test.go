package smp

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// TestLedgerConservationUnderShootdowns checks the cycle books on a
// multi-core system whose cores take shootdown IPIs — including lost
// IPIs that the retry protocol re-delivers — between translation rounds.
// Each core carries its own ledger: per core, the access trails sum to
// the core's Stats.Cycles, and across the cores sharing one cache
// hierarchy the aggregated walk and victim-probe books equal the cycles
// re-derived from that hierarchy's own counters.
func TestLedgerConservationUnderShootdowns(t *testing.T) {
	const cores = 3
	lat := []uint64{3, 11}
	caches := cachesim.NewHierarchy([]cachesim.Level{
		{Name: "L1D", Size: 4 << 10, Ways: 4, Latency: lat[0]},
		{Name: "L2", Size: 32 << 10, Ways: 8, Latency: lat[1]},
	}, 97)
	sys, _, base, fp := newSMPWith(t, mmu.DesignMixVictima, cores, caches)
	sys.SetChaos(chaos.NewInjector(5, chaos.Rates{IPILoss: 0.3, IPIDelay: 0.2}))
	ledgers := make([]*ledger.Ledger, cores)
	for i, c := range sys.Cores() {
		ledgers[i] = ledger.New(4)
		c.AttachLedger(ledgers[i])
	}
	streams := make([]workload.Stream, cores)
	for i := range streams {
		streams[i] = workload.NewZipf(base, fp, simrand.New(uint64(i)+9), 0.9, 0.2, uint64(i))
	}
	trails := make([]uint64, cores)
	rng := simrand.New(0x5d0)
	for round := 0; round < 12; round++ {
		for i := 0; i < 6000; i++ {
			c := i % cores
			ref := streams[c].Next()
			if r := sys.Translate(c, tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC}); r.Faulted {
				t.Fatalf("core %d faulted at %v", c, ref.VA)
			}
			for _, st := range ledgers[c].Trail() {
				trails[c] += st.Cycles
			}
		}
		off := addr.AlignedDown(rng.Uint64n(fp-(2<<20)), addr.Size2M)
		sys.Munmap(base+addr.V(off), 2<<20)
	}
	if sys.Stats().IPIsLost == 0 {
		t.Fatal("IPI loss never exercised; lost-IPI path untested")
	}
	for i, c := range sys.Cores() {
		st := c.Stats()
		if trails[i] != st.Cycles {
			t.Errorf("core %d: trails sum to %d cycles, Stats.Cycles %d", i, trails[i], st.Cycles)
		}
		if st.Invalidations == 0 {
			t.Errorf("core %d: munmap storm delivered no invalidations", i)
		}
	}
	want := caches.MemAccesses() * caches.MemLatency()
	for i := range lat {
		_, accesses, _ := caches.LevelStats(i)
		want += accesses * lat[i]
	}
	agg := sys.Aggregate()
	if got := agg.WalkCycles + agg.VictimProbeCycles; got != want {
		t.Errorf("aggregate walk+victim books %d != %d cycles re-derived from cachesim", got, want)
	}
	if agg.VictimProbeCycles == 0 {
		t.Error("victim level never probed; victim books untested")
	}
}
