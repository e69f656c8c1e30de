package perfmodel

import (
	"math"
	"testing"

	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
)

func TestRuntimeBasic(t *testing.T) {
	p := Default(1.0, 0.5)
	st := mmu.Stats{Accesses: 1000, Cycles: 1000} // exactly L1Hit each
	e := p.Runtime(st)
	if e.Instructions != 2000 {
		t.Errorf("instructions = %v", e.Instructions)
	}
	if e.TranslationCycles != 0 {
		t.Errorf("pure-L1-hit run has translation overhead %v", e.TranslationCycles)
	}
	if e.PctTranslation() != 0 {
		t.Errorf("PctTranslation = %v", e.PctTranslation())
	}
}

func TestRuntimeWithOverhead(t *testing.T) {
	p := Default(1.0, 0.5)
	st := mmu.Stats{Accesses: 1000, Cycles: 3000} // 2000 cycles of overhead
	e := p.Runtime(st)
	if e.TranslationCycles != 2000 {
		t.Errorf("overhead = %v", e.TranslationCycles)
	}
	if e.TotalCycles != 2000+2000 {
		t.Errorf("total = %v", e.TotalCycles)
	}
	if got := e.PctTranslation(); got != 50 {
		t.Errorf("PctTranslation = %v", got)
	}
	if got := e.OverheadVsIdealPercent(); got != 100 {
		t.Errorf("OverheadVsIdeal = %v", got)
	}
}

func TestImprovementPercent(t *testing.T) {
	p := Default(1.0, 0.5)
	slow := p.Runtime(mmu.Stats{Accesses: 1000, Cycles: 5000})
	fast := p.Runtime(mmu.Stats{Accesses: 1000, Cycles: 1000})
	imp := ImprovementPercent(slow, fast)
	// slow: 2000 base + 4000 overhead = 6000; fast: 2000. 66.7%.
	if math.Abs(imp-66.67) > 0.1 {
		t.Errorf("improvement = %v", imp)
	}
	if ImprovementPercent(Estimate{}, fast) != 0 {
		t.Error("zero base not handled")
	}
	// Improvement of a design over itself is zero.
	if ImprovementPercent(fast, fast) != 0 {
		t.Error("self-improvement nonzero")
	}
}

func TestNegativeOverheadClamped(t *testing.T) {
	p := Default(1.0, 0.5)
	// Fewer cycles than accesses (ideal TLB with FreeWalks rounding).
	e := p.Runtime(mmu.Stats{Accesses: 1000, Cycles: 500})
	if e.TranslationCycles != 0 {
		t.Errorf("negative overhead not clamped: %v", e.TranslationCycles)
	}
}

func TestZeroRefsPerInstrDefaulted(t *testing.T) {
	p := Params{BaseCPI: 1, L1HitCycles: 1}
	e := p.Runtime(mmu.Stats{Accesses: 330, Cycles: 330})
	if e.Instructions < 900 || e.Instructions > 1100 {
		t.Errorf("instructions = %v", e.Instructions)
	}
}

func TestMoreMissesMoreTranslationShare(t *testing.T) {
	p := Default(1.5, 0.35)
	low := p.Runtime(mmu.Stats{Accesses: 10000, Cycles: 12000})
	high := p.Runtime(mmu.Stats{Accesses: 10000, Cycles: 90000})
	if low.PctTranslation() >= high.PctTranslation() {
		t.Error("translation share not monotone in cycles")
	}
}

func TestAttributionShares(t *testing.T) {
	var books [ledger.NumCategories]uint64
	if got := AttributionShares(books); got != ([ledger.NumCategories]float64{}) {
		t.Fatalf("empty books produced shares %v", got)
	}
	books[ledger.L1Probe] = 25
	books[ledger.WalkFull] = 75
	got := AttributionShares(books)
	if got[ledger.L1Probe] != 25 || got[ledger.WalkFull] != 75 {
		t.Fatalf("shares = %v", got)
	}
	var sum float64
	for _, s := range got {
		sum += s
	}
	if sum != 100 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
}
