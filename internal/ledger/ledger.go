// Package ledger names the cost categories every simulated translation
// cycle is booked under, and records — when a caller opts in — each
// translation's charge trail plus a top-K flight recorder of the slowest
// translations.
//
// The books themselves live in mmu.Stats.Books: the MMU charges every
// cycle through a single helper that adds it to exactly one category, so
// the per-category sums equal the total by construction. A Ledger is the
// optional observer of those charges: it sees each one as a trail step,
// never influences it, and keeps no books of its own. It is schedule-
// deterministic (state is per-MMU, mutated only on that MMU's own
// translation path) and allocation-free on the hot path: all per-access
// state lives in fixed arrays sized at construction.
package ledger

import (
	"fmt"
	"strings"

	"mixtlb/internal/addr"
)

// Category is one destination for attributed cycles. Every cycle the MMU
// charges lands in exactly one category.
type Category uint8

const (
	// L1Probe is the first hierarchy level's probe latency, charged on
	// every non-memoized access.
	L1Probe Category = iota
	// L2Probe is the second level's probe latency.
	L2Probe
	// DeepProbe folds probe latency of SRAM levels beyond the second.
	DeepProbe
	// ExtraProbe is the added cost of probe rounds beyond the first
	// within one level (hash-rehash re-probes, predictor second rounds).
	ExtraProbe
	// VictimProbe is data-cache access time spent probing a
	// cache-resident victim level (Victima-style designs).
	VictimProbe
	// WalkFull is page-table-walk PTE reference time on walks the
	// paging-structure caches did not shorten (or designs without PWC).
	WalkFull
	// WalkPWC is walk PTE reference time on walks a PWC prefix hit
	// shortened — only the issued (unskipped) references cost cycles.
	WalkPWC
	// WalkContig is walk PTE reference time on walks whose leaf carried
	// the ISA's hardware contiguity encoding (an SVNAPOT range or an
	// ARM64 contiguous-hint block). The encoding changes what the fill
	// learns, not how many PTEs the walk reads, so these cycles are
	// walk cost like WalkFull/WalkPWC — attributed separately so
	// breakdowns on non-x86 descriptors show how much walk time the
	// architectural contiguity covers. Never charged on descriptors
	// without an encoding, including the default x86-64.
	WalkContig
	// DirtyAssist is the exposed latency of injected PTE dirty-bit
	// micro-ops (zero cycles under the default latency model, but the
	// events are still counted).
	DirtyAssist
	// MemoReplay is the replayed charge of consecutive same-page hits
	// served from the MMU's first-level memo without re-probing.
	MemoReplay
	// ChaosRetry absorbs every cycle of oracle-triggered re-translations:
	// when fault injection corrupts a result and the oracle rejects it,
	// the retry's probe and walk cycles are the cost of the fault, not of
	// the design's steady state.
	ChaosRetry

	// NumCategories sizes per-category arrays.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"l1-probe", "l2-probe", "deep-probe", "extra-probe", "victim-probe",
	"walk-full", "walk-pwc", "walk-contig", "dirty-assist", "memo-replay",
	"chaos-retry",
}

// String names the category as used in tables and narrations.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// ProbeCategory is the category of an SRAM probe at hierarchy level li
// (0-indexed).
func ProbeCategory(li int) Category {
	switch li {
	case 0:
		return L1Probe
	case 1:
		return L2Probe
	}
	return DeepProbe
}

// MaxTrail bounds the per-translation step trail. A worst-case access is
// maxOracleRetries+1 rounds through a deep hierarchy (probe per level,
// extra probes, a victim probe, a walk, a dirty assist); 40 covers that
// with slack, and overflow merges into the last step rather than growing.
const MaxTrail = 40

// Step is one merged charge along a single translation's trail: which
// category, at which hierarchy level (-1 when not a probe), how many
// cycles, over how many charge events.
type Step struct {
	Cat    Category
	Level  int8
	Cycles uint64
	Events uint32
}

// Access describes one translation as its trail closes: where the
// request landed, how many PTE references its walks issued, and how many
// oracle retries it took.
type Access struct {
	VA       uint64
	Size     addr.PageSize
	HitLevel int8 // -1 = walked or faulted
	Faulted  bool
	WalkRefs uint16
	Retries  uint8
}

// Ledger records one MMU's charge trails. Not safe for concurrent use —
// like the MMU it observes, it belongs to a single simulation goroutine.
type Ledger struct {
	// Per-access scratch, reset by Begin and harvested by End.
	seq      uint64 // completed accesses (deterministic tie-break id)
	cycles   uint64 // cycles charged to the in-flight access
	trail    [MaxTrail]Step
	trailLen int

	tail *Tail // optional top-K slowest-translation recorder
}

// New returns a ledger; tailK > 0 additionally arms a top-K tail flight
// recorder (clamped to MaxTailK).
func New(tailK int) *Ledger {
	l := &Ledger{}
	if tailK > 0 {
		l.tail = newTail(tailK)
	}
	return l
}

// Reset restarts the access count and empties the tail recorder,
// separating warm-up from measurement exactly as MMU.ResetStats does.
func (l *Ledger) Reset() {
	tail := l.tail
	*l = Ledger{tail: tail}
	if tail != nil {
		tail.reset()
	}
}

// Begin opens one translation's trail. The MMU calls it once per access
// (memoized replays included) before any charge.
func (l *Ledger) Begin() {
	l.cycles = 0
	l.trailLen = 0
}

// Step appends one charge to the in-flight translation's trail. The MMU
// has already booked it; level is the probed hierarchy level, or -1 when
// the charge is not a probe.
func (l *Ledger) Step(c Category, level int8, cycles uint64) {
	l.cycles += cycles
	// Merge consecutive same-category steps (probe rounds, per-probe
	// victim charges) so trails stay short and bounded.
	if n := l.trailLen; n > 0 && l.trail[n-1].Cat == c && l.trail[n-1].Level == level {
		l.trail[n-1].Cycles += cycles
		l.trail[n-1].Events++
		return
	}
	if l.trailLen == MaxTrail {
		l.trail[MaxTrail-1].Cycles += cycles
		l.trail[MaxTrail-1].Events++
		return
	}
	l.trail[l.trailLen] = Step{Cat: c, Level: level, Cycles: cycles, Events: 1}
	l.trailLen++
}

// End closes the in-flight translation, feeding the tail recorder when
// one is armed.
func (l *Ledger) End(a Access) {
	seq := l.seq
	l.seq++
	if l.tail != nil {
		l.tail.offer(l, a, seq)
	}
}

// Accesses returns how many translations have closed their trails.
func (l *Ledger) Accesses() uint64 { return l.seq }

// Trail returns the last completed translation's step trail. The slice
// aliases the ledger's scratch and is valid until the next translation.
func (l *Ledger) Trail() []Step { return l.trail[:l.trailLen] }

// TrailString renders a step trail compactly: "L1:1 L2:7 walk-full:40x4"
// (cycles, and xN when a step merged N charges).
func TrailString(steps []Step) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Level >= 0 {
			fmt.Fprintf(&b, "L%d:%d", s.Level+1, s.Cycles)
		} else {
			fmt.Fprintf(&b, "%s:%d", s.Cat, s.Cycles)
		}
		if s.Events > 1 {
			fmt.Fprintf(&b, "x%d", s.Events)
		}
	}
	return b.String()
}
