package ledger

import (
	"strings"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

func TestCategoryNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Category(0); c < NumCategories; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "category(") {
			t.Fatalf("category %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate category name %q", name)
		}
		seen[name] = true
	}
	if got := Category(200).String(); got != "category(200)" {
		t.Fatalf("out-of-range name = %q", got)
	}
}

// TestTrailConservation: a closed trail accounts for every cycle charged
// to its access, and the tail record it feeds carries the same total.
func TestTrailConservation(t *testing.T) {
	l := New(1)
	l.Begin()
	l.Step(L1Probe, 0, 1)
	l.Step(L2Probe, 1, 7)
	l.Step(WalkFull, -1, 40)
	l.End(Access{VA: 0x1000, Size: addr.Page4K, HitLevel: -1, WalkRefs: 4})

	var sum uint64
	for _, s := range l.Trail() {
		sum += s.Cycles
	}
	if sum != 48 {
		t.Fatalf("trail sums to %d cycles, want 48", sum)
	}
	top := l.Top()
	if len(top) != 1 || top[0].Cycles != 48 || top[0].WalkRefs != 4 || top[0].VA != 0x1000 {
		t.Fatalf("tail record = %+v", top)
	}
	if got := TrailString(top[0].Trail()); got != "L1:1 L2:7 walk-full:40" {
		t.Fatalf("recorded trail = %q", got)
	}
}

func TestNilLedgerHasNoTail(t *testing.T) {
	var l *Ledger
	if l.Top() != nil {
		t.Fatal("nil ledger returned tail records")
	}
}

func TestProbeCategory(t *testing.T) {
	for li, want := range []Category{L1Probe, L2Probe, DeepProbe, DeepProbe} {
		if got := ProbeCategory(li); got != want {
			t.Errorf("ProbeCategory(%d) = %s, want %s", li, got, want)
		}
	}
}

func TestResetClearsBooksAndTail(t *testing.T) {
	l := New(4)
	l.Begin()
	l.Step(MemoReplay, -1, 5)
	l.End(Access{VA: 0x42, Size: addr.Page2M})
	l.Reset()
	if l.Accesses() != 0 {
		t.Fatalf("reset left %d accesses", l.Accesses())
	}
	if got := l.Top(); got != nil {
		t.Fatalf("reset left %d tail records", len(got))
	}
}

func TestTrailMergesConsecutiveCharges(t *testing.T) {
	l := New(0)
	l.Begin()
	l.Step(L1Probe, 0, 1)
	l.Step(VictimProbe, -1, 10)
	l.Step(VictimProbe, -1, 12)
	l.Step(WalkFull, -1, 40)
	l.End(Access{Size: addr.Page4K, HitLevel: -1})

	steps := l.Trail()
	if len(steps) != 3 {
		t.Fatalf("trail = %v, want 3 merged steps", steps)
	}
	if steps[1].Cat != VictimProbe || steps[1].Cycles != 22 || steps[1].Events != 2 {
		t.Fatalf("victim step not merged: %+v", steps[1])
	}
	s := TrailString(steps)
	if !strings.Contains(s, "L1:1") || !strings.Contains(s, "victim-probe:22x2") || !strings.Contains(s, "walk-full:40") {
		t.Fatalf("TrailString = %q", s)
	}
}

func TestTrailOverflowStaysBounded(t *testing.T) {
	l := New(0)
	l.Begin()
	for i := 0; i < 3*MaxTrail; i++ {
		// Alternate categories so no merge hides the overflow.
		if i%2 == 0 {
			l.Step(WalkFull, -1, 1)
		} else {
			l.Step(DirtyAssist, -1, 1)
		}
	}
	l.End(Access{Size: addr.Page4K, HitLevel: -1})
	if len(l.Trail()) != MaxTrail {
		t.Fatalf("trail length = %d, want %d", len(l.Trail()), MaxTrail)
	}
	var sum uint64
	for _, s := range l.Trail() {
		sum += s.Cycles
	}
	if sum != 3*MaxTrail {
		t.Fatalf("overflowed trail sums to %d cycles, want %d", sum, 3*MaxTrail)
	}
}

func TestTailKeepsKSlowest(t *testing.T) {
	const k = 4
	l := New(k)
	cycles := []uint64{5, 90, 10, 70, 70, 3, 100, 10}
	for i, c := range cycles {
		l.Begin()
		l.Step(WalkFull, -1, c)
		l.End(Access{VA: uint64(i) << addr.Shift4K, Size: addr.Page4K, HitLevel: -1})
	}
	top := l.Top()
	if len(top) != k {
		t.Fatalf("len(top) = %d, want %d", len(top), k)
	}
	gotCycles := []uint64{top[0].Cycles, top[1].Cycles, top[2].Cycles, top[3].Cycles}
	want := []uint64{100, 90, 70, 70}
	for i := range want {
		if gotCycles[i] != want[i] {
			t.Fatalf("top cycles = %v, want %v", gotCycles, want)
		}
	}
	// The two 70s tie: earliest access first.
	if top[2].Seq != 3 || top[3].Seq != 4 {
		t.Fatalf("tie order: seq %d then %d, want 3 then 4", top[2].Seq, top[3].Seq)
	}
}

func TestTailTiesKeepEarliest(t *testing.T) {
	l := New(2)
	for i := 0; i < 10; i++ {
		l.Begin()
		l.Step(WalkFull, -1, 50) // all equal: later accesses must not displace
		l.End(Access{VA: uint64(i), Size: addr.Page4K, HitLevel: -1})
	}
	top := l.Top()
	if len(top) != 2 || top[0].Seq != 0 || top[1].Seq != 1 {
		t.Fatalf("equal-cycle stream kept %v, want seqs 0,1", top)
	}
}

func TestTailKClamped(t *testing.T) {
	l := New(10 * MaxTailK)
	if l.tail.K() != MaxTailK {
		t.Fatalf("K = %d, want clamp to %d", l.tail.K(), MaxTailK)
	}
}

// TestTailDeterministic replays one random charge stream twice and
// requires identical recorder contents — the property that makes tail
// exports jobs-invariant (per-cell state, deterministic insertion).
func TestTailDeterministic(t *testing.T) {
	run := func() []TailRecord {
		l := New(8)
		rng := simrand.New(7)
		for i := 0; i < 5000; i++ {
			l.Begin()
			l.Step(L1Probe, 0, 1)
			if rng.Uint64n(4) == 0 {
				l.Step(WalkFull, -1, rng.Uint64n(200))
			}
			l.End(Access{VA: rng.Uint64(), Size: addr.Page4K, HitLevel: -1, WalkRefs: 4})
		}
		return l.Top()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestHotPathAllocs(t *testing.T) {
	l := New(MaxTailK)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		l.Begin()
		l.Step(L1Probe, 0, 1)
		l.Step(L2Probe, 1, 7)
		l.Step(VictimProbe, -1, 20)
		l.Step(WalkPWC, -1, uint64(i%97))
		l.Step(DirtyAssist, -1, 0)
		l.End(Access{VA: uint64(i), Size: addr.Page2M, HitLevel: -1, WalkRefs: 2})
		i++
	})
	if avg != 0 {
		t.Fatalf("hot path allocates %.1f/op, want 0", avg)
	}
}
