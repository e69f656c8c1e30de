package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/tlb"
)

// conservationHierarchy is a small cache hierarchy with distinctive
// latencies, so a cycle booked against the wrong cache event cannot
// cancel out in the cachesim re-derivation below.
func conservationHierarchy() *cachesim.Hierarchy {
	return cachesim.NewHierarchy([]cachesim.Level{
		{Name: "L1D", Size: 4 << 10, Ways: 4, Latency: 3},
		{Name: "L2", Size: 32 << 10, Ways: 8, Latency: 11},
	}, 97)
}

// cacheCycles re-derives every cycle the data-cache hierarchy charged
// from cachesim's own counters: each access pays the latency of every
// level it probed, and each DRAM reference the memory latency on top.
func cacheCycles(h *cachesim.Hierarchy) uint64 {
	cycles := h.MemAccesses() * h.MemLatency()
	lat := []uint64{3, 11}
	for i := 0; i < h.Levels(); i++ {
		_, accesses, _ := h.LevelStats(i)
		cycles += accesses * lat[i]
	}
	return cycles
}

// trailCycles sums the last translation's charge trail.
func trailCycles(led *ledger.Ledger) uint64 {
	var sum uint64
	for _, st := range led.Trail() {
		sum += st.Cycles
	}
	return sum
}

// TestLedgerConservationAllDesigns is the conservation invariant of the
// cycle books, corroborated independently of MMU.charge: for every
// registry design, a mixed read/write stream with interleaved shootdowns
//   - books exactly the data-cache time cachesim's counters imply as
//     WalkCycles + VictimProbeCycles,
//   - books exactly the sum of its per-access Result.Cycles as Stats.Cycles,
//   - and closes one ledger trail per access that sums to that access's
//     cycles.
//
// After ResetStats the books re-open empty, exactly like the
// warmup/measure boundary.
func TestLedgerConservationAllDesigns(t *testing.T) {
	const pages4k = 1024
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			e, mapped := buildRefEnv(t, pages4k)
			caches := conservationHierarchy()
			m, err := reg.Build(name, e.pt, e.pt, caches, nil)
			if err != nil {
				t.Fatal(err)
			}
			led := ledger.New(8)
			m.AttachLedger(led)
			reqs := randomRequests(0x1ed6e4+uint64(len(name)), mapped, 6000)
			run := func(reqs []tlb.Request) uint64 {
				var sum uint64
				for i, r := range reqs {
					res := m.Translate(r)
					sum += res.Cycles
					if got := trailCycles(led); got != res.Cycles {
						t.Fatalf("access %d: trail %s sums to %d, result charged %d",
							i, ledger.TrailString(led.Trail()), got, res.Cycles)
					}
					switch i % 997 {
					case 250:
						m.Invalidate(r.VA, addr.Page4K)
					case 500:
						m.Flush()
					}
				}
				return sum
			}
			sum := run(reqs)
			st := m.Stats()
			if got, want := st.WalkCycles+st.VictimProbeCycles, cacheCycles(caches); got != want {
				t.Errorf("walk+victim books %d != %d cycles re-derived from cachesim", got, want)
			}
			if sum != st.Cycles {
				t.Errorf("results charged %d cycles, Stats.Cycles %d", sum, st.Cycles)
			}
			if st.Books[ledger.ChaosRetry] != 0 {
				t.Errorf("chaos-retry books %d without an oracle", st.Books[ledger.ChaosRetry])
			}
			if led.Accesses() != st.Accesses {
				t.Errorf("ledger closed %d accesses, Stats saw %d", led.Accesses(), st.Accesses)
			}

			m.ResetStats()
			if st := m.Stats(); st.Books != ([ledger.NumCategories]uint64{}) || st.Cycles != 0 || led.Accesses() != 0 {
				t.Fatalf("ResetStats left books %v, cycles %d, %d ledger accesses", st.Books, st.Cycles, led.Accesses())
			}
			sum = run(reqs[:1500])
			if st := m.Stats(); st.Cycles == 0 || st.Cycles != sum {
				t.Fatalf("post-reset: results charged %d cycles, Stats.Cycles %d", sum, st.Cycles)
			}
		})
	}
}

// TestLedgerConservationUnderChaos covers the retry redirect: with an
// injector corrupting hits and walks and the oracle scrubbing and
// re-translating, the retries' cycles land in the chaos-retry books
// instead of polluting the steady-state ones, and the per-access ledger
// trails — which span every retry pass — still sum to Stats.Cycles.
func TestLedgerConservationUnderChaos(t *testing.T) {
	for _, d := range []Design{DesignSplit, DesignMix, DesignVictima, DesignSplitPWC} {
		t.Run(string(d), func(t *testing.T) {
			e, m, want := chaosEnv(t, d)
			m.InjectFaults(chaos.NewInjector(11, chaos.Rates{
				TLBCorrupt: 0.05, SilentFrac: 0.6, PTECorrupt: 0.05,
			}))
			m.AttachOracle(chaos.NewOracle(e.pt))
			led := ledger.New(0)
			m.AttachLedger(led)
			var trails uint64
			for round := 0; round < 40; round++ {
				for va := range want {
					m.Translate(tlb.Request{VA: va + 0x40, Write: round%3 == 0})
					trails += trailCycles(led)
				}
			}
			st := m.Stats()
			if st.OracleMismatches == 0 {
				t.Fatal("chaos rates never tripped the oracle; test exercises nothing")
			}
			if st.Books[ledger.ChaosRetry] == 0 {
				t.Error("oracle retries charged no cycles to chaos-retry")
			}
			if trails != st.Cycles {
				t.Errorf("ledger trails sum to %d cycles, Stats.Cycles %d", trails, st.Cycles)
			}
		})
	}
}

// TestChargeRetryRedirect pins charge's redirect: while an oracle retry
// is in flight every charge lands in chaos-retry, in the books and on
// the trail, whatever category and level its site named.
func TestChargeRetryRedirect(t *testing.T) {
	m := splitMMU(newEnv(t), nil)
	led := ledger.New(0)
	m.AttachLedger(led)
	var res Result
	led.Begin()
	m.charge(&res, ledger.L1Probe, 0, 1)
	m.retrying = true
	m.charge(&res, ledger.L1Probe, 0, 1)
	m.charge(&res, ledger.WalkPWC, -1, 30)
	m.retrying = false
	led.End(ledger.Access{})

	st := m.Stats()
	if st.Books[ledger.L1Probe] != 1 || st.Books[ledger.ChaosRetry] != 31 || st.Books[ledger.WalkPWC] != 0 {
		t.Fatalf("redirect books: %v", st.Books)
	}
	if st.Cycles != 32 || res.Cycles != 32 || st.WalkCycles != 0 {
		t.Fatalf("cycles: stats %d, result %d, walk %d", st.Cycles, res.Cycles, st.WalkCycles)
	}
	if got := ledger.TrailString(led.Trail()); got != "L1:1 chaos-retry:31x2" {
		t.Fatalf("trail = %q", got)
	}
}

// TestLedgerObserverOnly pins the "passive observer" contract: two MMUs
// of the same design fed the same stream — one with a ledger and tail
// recorder attached, one bare — must produce identical results and
// identical Stats. This is the per-MMU form of the golden-table
// invariance the experiments layer asserts end to end.
func TestLedgerObserverOnly(t *testing.T) {
	const pages4k = 512
	for _, d := range allTestDesigns() {
		t.Run(string(d), func(t *testing.T) {
			reqs := randomRequests(0x0b5e4e4+uint64(len(d)), nil2mapped(t, pages4k), 4000)
			bare := buildDesign(t, d, pages4k)
			wired := buildDesign(t, d, pages4k)
			wired.AttachLedger(ledger.New(16))
			for i, r := range reqs {
				a := bare.Translate(r)
				b := wired.Translate(r)
				if a != b {
					t.Fatalf("access %d: bare %+v != instrumented %+v", i, a, b)
				}
			}
			if sa, sb := bare.Stats(), wired.Stats(); sa != sb {
				t.Fatalf("stats diverged:\nbare  %+v\nwired %+v", sa, sb)
			}
		})
	}
}

// nil2mapped rebuilds the reference environment's mapped-page list
// without retaining the env (each buildDesign call makes its own, with
// identical deterministic layout).
func nil2mapped(t *testing.T, pages4k int) []mappedPage {
	t.Helper()
	_, mapped := buildRefEnv(t, pages4k)
	return mapped
}

// TestLedgerTailRecordsSlowest checks the flight recorder end to end on
// a real MMU: records exist, are sorted slowest-first, never exceed K,
// and the slowest record's cycles match a walk-bearing access (the tail
// of any TLB'd design is its walks).
func TestLedgerTailRecordsSlowest(t *testing.T) {
	const pages4k = 1024
	_, mapped := buildRefEnv(t, pages4k)
	reqs := randomRequests(0x7a11, mapped, 8000)
	m := buildDesign(t, DesignSplit, pages4k)
	led := ledger.New(8)
	m.AttachLedger(led)
	var maxCycles uint64
	for _, r := range reqs {
		if res := m.Translate(r); res.Cycles > maxCycles {
			maxCycles = res.Cycles
		}
	}
	top := led.Top()
	if len(top) != 8 {
		t.Fatalf("recorded %d tail records, want 8", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cycles > top[i-1].Cycles {
			t.Fatalf("tail not sorted: %d then %d", top[i-1].Cycles, top[i].Cycles)
		}
	}
	if top[0].Cycles != maxCycles {
		t.Errorf("slowest record %d cycles, observed max %d", top[0].Cycles, maxCycles)
	}
	if top[0].WalkRefs == 0 || top[0].HitLevel != -1 {
		t.Errorf("slowest access should be a walk: %+v", top[0])
	}
	if len(top[0].Trail()) == 0 {
		t.Error("slowest record carries no trail")
	}
}

// TestTranslateZeroAllocLedgerEnabled extends the telemetry pin to the
// attribution layer: a ledger with a full-size tail recorder attached
// must not add a single steady-state allocation, and neither may the
// disabled state (re-pinned here so the nil-check path stays honest even
// if the telemetry tests move).
func TestTranslateZeroAllocLedgerEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(string(d), func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0xa110c+uint64(len(d)), mapped, 4096)
			for _, attach := range []bool{false, true} {
				m := buildDesign(t, d, pages4k)
				if attach {
					m.AttachLedger(ledger.New(ledger.MaxTailK))
				}
				for _, r := range reqs {
					m.Translate(r)
				}
				i := 0
				avg := testing.AllocsPerRun(20, func() {
					for j := 0; j < 256; j++ {
						m.Translate(reqs[i%len(reqs)])
						i++
					}
				})
				if avg != 0 {
					t.Errorf("attached=%v: Translate allocates %.2f times per 256 accesses", attach, avg)
				}
			}
		})
	}
}
