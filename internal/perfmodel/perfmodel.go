// Package perfmodel converts functional TLB/cache statistics into runtime
// estimates, following the paper's methodology (Sec 6.2): hit rates from
// functional simulation are weighted into program execution time using
// per-workload parameters that stand in for performance-counter
// measurements (base CPI with ideal translation, memory references per
// instruction).
package perfmodel

import (
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
)

// Params characterizes a workload for the analytical model.
type Params struct {
	// BaseCPI is cycles per instruction with ideal (free) translation.
	BaseCPI float64
	// RefsPerInstr is the fraction of instructions that reference memory.
	RefsPerInstr float64
	// L1HitCycles is the baseline per-access TLB cost that overlaps the
	// cache access on real pipelines; only cycles above it count as
	// translation overhead.
	L1HitCycles uint64
}

// Default wraps workload-model constants with the default latency model.
func Default(baseCPI, refsPerInstr float64) Params {
	return Params{BaseCPI: baseCPI, RefsPerInstr: refsPerInstr, L1HitCycles: mmu.DefaultLatencies().L1Hit}
}

// Estimate is a runtime prediction.
type Estimate struct {
	Instructions      float64
	BaseCycles        float64
	TranslationCycles float64
	TotalCycles       float64
}

// PctTranslation returns the share of runtime spent translating — the
// Figure 1 / Figure 15(right) metric.
func (e Estimate) PctTranslation() float64 {
	if e.TotalCycles == 0 {
		return 0
	}
	return 100 * e.TranslationCycles / e.TotalCycles
}

// Runtime estimates execution time for a simulation that issued
// st.Accesses memory references.
func (p Params) Runtime(st mmu.Stats) Estimate {
	var e Estimate
	if p.RefsPerInstr <= 0 {
		p.RefsPerInstr = 0.33
	}
	e.Instructions = float64(st.Accesses) / p.RefsPerInstr
	e.BaseCycles = e.Instructions * p.BaseCPI
	overhead := float64(st.Cycles) - float64(st.Accesses*p.L1HitCycles)
	if overhead < 0 {
		overhead = 0
	}
	e.TranslationCycles = overhead
	e.TotalCycles = e.BaseCycles + e.TranslationCycles
	return e
}

// AvgWalkCycles returns the mean cycle cost of a charged page walk —
// the price a translation pays when every TLB level misses.
func AvgWalkCycles(st mmu.Stats) float64 {
	if st.Walks == 0 {
		return 0
	}
	return float64(st.WalkCycles) / float64(st.Walks)
}

// AvgVictimProbeCycles returns the mean cycle cost of a victim-level
// probe (a data-cache access or two, per tlb.Victim). The reach study
// compares it against AvgWalkCycles: a victim level only pays off while
// its probes stay cheaper than the walks they replace.
func AvgVictimProbeCycles(st mmu.Stats) float64 {
	if st.VictimProbes == 0 {
		return 0
	}
	return float64(st.VictimProbeCycles) / float64(st.VictimProbes)
}

// ImprovementPercent returns the % performance improvement of `test` over
// `base` for the same work — the Figure 14/15/18 metric:
// 100 * (baseTime - testTime) / baseTime.
func ImprovementPercent(base, test Estimate) float64 {
	if base.TotalCycles == 0 {
		return 0
	}
	return 100 * (base.TotalCycles - test.TotalCycles) / base.TotalCycles
}

// OverheadVsIdealPercent returns how much slower est runs than a perfect
// TLB (zero translation cycles) — the Figure 15(right) y-axis.
func (e Estimate) OverheadVsIdealPercent() float64 {
	if e.BaseCycles == 0 {
		return 0
	}
	return 100 * e.TranslationCycles / e.BaseCycles
}

// AttributionShares converts per-category cycle books (Stats.Books) into
// percentage shares of their total — the stacked columns of the
// breakdown experiment. All zeros when nothing was charged.
func AttributionShares(books [ledger.NumCategories]uint64) [ledger.NumCategories]float64 {
	var out [ledger.NumCategories]float64
	var total uint64
	for _, c := range books {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range books {
		out[i] = 100 * float64(c) / float64(total)
	}
	return out
}
