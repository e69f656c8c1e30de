package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mixtlb/internal/addr"
	"mixtlb/internal/core"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
)

// epoch anchors every timestamp the benchmark takes, traced or not, so a
// span's bounds and an untraced interval come from the same clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary. A folded span stands
// for Calls calls of one kind made inside its parent: Start and End are
// the first call's start and the last call's end, Busy is the summed
// duration of the calls themselves. Core TLB calls are folded per
// translate batch because one span per call would be millions per
// episode.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// busy is the time the span accounts for inside its parent.
func (s span) busy() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// coreOp names the MIX TLB calls the traced run times.
type coreOp int

const (
	opLookup coreOp = iota
	opFill
	opPromote
	opMembers
	opDirty
	numCoreOps
)

var coreOpNames = [numCoreOps]string{"core.lookup", "core.fill", "core.promote", "core.members", "core.dirty"}

// opAcc accumulates calls of one kind for a folded span.
type opAcc struct{ calls, busy, first, last int64 }

// add accounts calls that ran back to back from start to end.
func (a *opAcc) add(start, end, calls int64) {
	if a.calls == 0 {
		a.first = start
	}
	a.calls += calls
	a.busy += end - start
	a.last = end
}

// record stores the accumulated calls as one folded span.
func (a *opAcc) record(tr *tracer, name string, parent int) {
	if a.calls == 0 {
		return
	}
	id := tr.add(name, parent, a.first, a.last)
	tr.spans[id].Calls = a.calls
	tr.spans[id].Busy = a.busy
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	spans []span
	ops   [numCoreOps]opAcc // core calls since the last fold
}

// open starts a span and returns its id.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, now(), -1)
}

// mark returns the index the next span will get.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = now()
}

// add records a span whose bounds the caller measured.
func (t *tracer) add(name string, parent int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// op accounts one core call that started at start and ends now.
func (t *tracer) op(k coreOp, start int64) { t.ops[k].add(start, now(), 1) }

// foldOps records the core calls accumulated since the last fold as
// folded child spans of parent.
func (t *tracer) foldOps(parent int) {
	for k := range t.ops {
		t.ops[k].record(t, coreOpNames[k], parent)
		t.ops[k] = opAcc{}
	}
}

// layerTotal sums the spans of one name: busy time, self time (busy
// minus the time of direct children) and calls.
type layerTotal struct{ busy, self, calls int64 }

// totals sums the spans in [from, to) by name; a span's children must lie
// in the same range.
func (t *tracer) totals(from, to int) map[string]layerTotal {
	child := make([]int64, to-from)
	for _, s := range t.spans[from:to] {
		if s.Parent >= from {
			child[s.Parent-from] += s.busy()
		}
	}
	out := make(map[string]layerTotal)
	for _, s := range t.spans[from:to] {
		lt := out[s.Name]
		lt.busy += s.busy()
		lt.self += s.busy() - child[s.ID-from]
		if s.Calls > 0 {
			lt.calls += s.Calls
		} else {
			lt.calls++
		}
		out[s.Name] = lt
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMix passes every call through to a MIX level and times the ones
// on the translation path. It implements exactly the optional interfaces
// *core.MixTLB does that mmu.New looks for, so the MMU takes the same
// walk-fusion, memo and promotion paths as with the bare level.
type tracedMix struct {
	m  *core.MixTLB
	tr *tracer
}

var (
	_ tlb.TLB              = (*tracedMix)(nil)
	_ tlb.Promoter         = (*tracedMix)(nil)
	_ tlb.BundleProvider   = (*tracedMix)(nil)
	_ tlb.DirtyRefresher   = (*tracedMix)(nil)
	_ tlb.Scrubber         = (*tracedMix)(nil)
	_ tlb.ReplayConsistent = (*tracedMix)(nil)
	_ tlb.EvictionNotifier = (*tracedMix)(nil)
)

func (t *tracedMix) Name() string { return t.m.Name() }
func (t *tracedMix) Entries() int { return t.m.Entries() }
func (t *tracedMix) Flush()       { t.m.Flush() }

func (t *tracedMix) Invalidate(va addr.V, size addr.PageSize) int { return t.m.Invalidate(va, size) }

func (t *tracedMix) ScrubCorrupt(va addr.V, size addr.PageSize) int {
	return t.m.ScrubCorrupt(va, size)
}

func (t *tracedMix) LookupReplayConsistent() bool { return t.m.LookupReplayConsistent() }

func (t *tracedMix) SetEvictionSink(sink tlb.EvictionSink) { t.m.SetEvictionSink(sink) }

func (t *tracedMix) Lookup(req tlb.Request) tlb.Result {
	s := now()
	r := t.m.Lookup(req)
	t.tr.op(opLookup, s)
	return r
}

func (t *tracedMix) Fill(req tlb.Request, walk pagetable.WalkResult) tlb.Cost {
	s := now()
	c := t.m.Fill(req, walk)
	t.tr.op(opFill, s)
	return c
}

func (t *tracedMix) Promote(req tlb.Request, tr pagetable.Translation, line []pagetable.Translation) tlb.Cost {
	s := now()
	c := t.m.Promote(req, tr, line)
	t.tr.op(opPromote, s)
	return c
}

func (t *tracedMix) Members(va addr.V) []pagetable.Translation {
	s := now()
	ms := t.m.Members(va)
	t.tr.op(opMembers, s)
	return ms
}

func (t *tracedMix) MarkDirty(va addr.V) bool {
	s := now()
	ok := t.m.MarkDirty(va)
	t.tr.op(opDirty, s)
	return ok
}

func (t *tracedMix) RefreshDirty(va addr.V, line []pagetable.Translation) bool {
	s := now()
	ok := t.m.RefreshDirty(va, line)
	t.tr.op(opDirty, s)
	return ok
}

// spansPath is the default dump location of a traced run's spans.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
