// Command perfbench is the repository's host-time benchmark: it measures
// how long the simulator itself takes, layer by layer, on three
// workloads, and checks every result it times. Run it from the
// repository root through run.sh; README.md explains the workloads and
// metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer ones.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named, unit-carrying number of the report.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd lists the metrics an untraced run prints, in order.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "wall_s", Unit: "s"},
	{Name: "max_rss_mb", Unit: "MB"},
}

// perLayer lists the metrics a traced run prints, in order. A workload
// that does not exercise a layer reports it as 0.
var perLayer = []metric{
	{Name: "physmem.build_s", Unit: "s"},
	{Name: "osmm.populate_s", Unit: "s"},
	{Name: "workload.build_s", Unit: "s"},
	{Name: "mmu.build_s", Unit: "s"},
	{Name: "workload.gen_ns_per_ref", Unit: "ns"},
	{Name: "mmu.translate_ns_per_ref", Unit: "ns"},
	{Name: "mmu.self_ns_per_ref", Unit: "ns"},
	{Name: "mmu.batch_us_p50", Unit: "us"},
	{Name: "mmu.batch_us_p99", Unit: "us"},
	{Name: "mmu.batch_samples", Unit: "count"},
	{Name: "core.lookup_ns", Unit: "ns"},
	{Name: "core.fill_ns", Unit: "ns"},
	{Name: "core.promote_ns", Unit: "ns"},
	{Name: "core.members_ns", Unit: "ns"},
	{Name: "core.dirty_ns", Unit: "ns"},
	{Name: "core.lookup_calls", Unit: "count"},
	{Name: "core.fill_calls", Unit: "count"},
	{Name: "core.promote_calls", Unit: "count"},
	{Name: "core.members_calls", Unit: "count"},
	{Name: "core.dirty_calls", Unit: "count"},
	{Name: "pagetable.walk_ns", Unit: "ns"},
	{Name: "cachesim.access_ns", Unit: "ns"},
	{Name: "experiments.fig14.wall_s", Unit: "s"},
	{Name: "experiments.fig16.wall_s", Unit: "s"},
	{Name: "experiments.breakdown.wall_s", Unit: "s"},
	{Name: "experiments.invalidation.wall_s", Unit: "s"},
	{Name: "experiments.cell_s_p50", Unit: "s"},
	{Name: "experiments.cell_s_max", Unit: "s"},
	{Name: "experiments.cells", Unit: "count"},
	{Name: "runtime.setup_alloc_mb", Unit: "MB"},
	{Name: "runtime.setup_gc_cycles", Unit: "count"},
	{Name: "runtime.alloc_mb", Unit: "MB"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "trace.setup_s", Unit: "s"},
	{Name: "trace.wall_s", Unit: "s"},
	{Name: "trace.overhead_s", Unit: "s"},
	{Name: "trace.clock_ns", Unit: "ns"},
	{Name: "mmu.l1_hit_ratio", Unit: "ratio"},
	{Name: "mmu.l2_hit_ratio", Unit: "ratio"},
	{Name: "mmu.walks_per_1k", Unit: "count"},
	{Name: "mmu.walk_refs_per_walk", Unit: "count"},
	{Name: "mmu.sim_cycles_per_ref", Unit: "cycles"},
	{Name: "mmu.dirty_uops_per_1k", Unit: "count"},
	{Name: "core.members_per_bundle", Unit: "count"},
	{Name: "core.mirror_writes_per_fill", Unit: "count"},
	{Name: "cachesim.mem_accesses_per_walk", Unit: "count"},
	{Name: "osmm.superpage_frac", Unit: "ratio"},
	{Name: "physmem.frames_held", Unit: "count"},
}

// options are the parsed command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	goldenDir string
	stateDir  string
	spansOut  string
	log       io.Writer // progress and diagnostics
}

// report is one run's outcome before it is printed.
type report struct {
	attempted, failed uint64
	// deterministic is false when two episodes of the run disagreed on a
	// simulated count.
	deterministic bool
	metrics       map[string]float64
	// counts are the simulated counts that must repeat for the seed.
	counts map[string]float64
	tr     *tracer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{log: stderr}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "superpage-coalesce, basepage-walk or figure-regen")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep repeating the measured work")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics, 0 reports end-to-end metrics")
	fs.StringVar(&o.goldenDir, "golden-dir", goldenDir, "directory of the golden tables figure-regen must reproduce")
	fs.StringVar(&o.stateDir, "state-dir", filepath.Join(".bench_build", "perfbench", "counts"),
		"directory recording each seed's simulated counts, to check them across runs")
	fs.StringVar(&o.spansOut, "spans-out", "", "file a traced run writes its spans to (default .bench_build/perfbench/spans-<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = trace == 1
	if o.spansOut == "" {
		o.spansOut = spansPath(o.workload, o.seed)
	}

	var rep *report
	var err error
	if w, ok := directWorkloads[o.workload]; ok {
		rep, err = runDirect(w, o)
	} else if o.workload == "figure-regen" {
		rep, err = runRegen(context.Background(), o)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want superpage-coalesce, basepage-walk or figure-regen)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	repeated, err := checkRecorded(o.stateDir, o.workload, o.seed, rep.counts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !repeated {
		fmt.Fprintf(stderr, "perfbench: simulated counts differ from an earlier run of seed %d\n", o.seed)
	}
	if !rep.deterministic {
		fmt.Fprintln(stderr, "perfbench: simulated counts differ between episodes of this run")
	}
	if rep.tr != nil {
		if err := rep.tr.write(o.spansOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := rep.line(o.trace, rep.deterministic && repeated)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// line renders the report as the run's last line: the end-to-end or
// per-layer metrics, every one of them, with their units.
func (r *report) line(traced, deterministic bool) (string, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(names))
	for _, m := range names {
		ms[m.Name] = value{r.metrics[m.Name], m.Unit}
	}
	for name := range r.metrics {
		if _, ok := ms[name]; !ok {
			return "", fmt.Errorf("metric %q is not in the catalog", name)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && deterministic, r.attempted, r.failed, ms})
	return string(out), err
}

// repeat calls f at least minN times and then again while another call,
// taking as long as the last one, would end before the deadline.
func repeat(deadline int64, minN int, f func() error) error {
	for n := 0; ; n++ {
		t0 := now()
		if err := f(); err != nil {
			return err
		}
		if n+1 >= minN && now()+(now()-t0) > deadline {
			return nil
		}
	}
}

// minRounds is the fewest rounds a run makes: one traced pair, or two
// untraced episodes of a direct workload so their simulated counts are
// compared within the run. One regeneration suffices for figure-regen,
// whose tables are compared with the goldens byte for byte.
func minRounds(o options) int {
	if o.trace || o.workload == "figure-regen" {
		return 1
	}
	return 2
}

// runDirect measures a direct workload. An untraced run repeats whole
// episodes (set-up plus translation) until its time is used and reports
// the median set-up and the typical timed phase. A traced run alternates
// untraced and traced episodes; the difference of their timed phases is
// the tracing overhead.
func runDirect(w directWorkload, o options) (*report, error) {
	deadline := now() + int64(o.seconds*1e9)
	var plain, traced []*episode
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	err := repeat(deadline, minRounds(o), func() error {
		ep, err := w.runEpisode(o.seed, nil)
		if err != nil {
			return err
		}
		plain = append(plain, ep)
		fmt.Fprintf(o.log, "perfbench: episode %d: setup %.4f s, wall %.4f s\n", len(plain), float64(ep.setup)/1e9, float64(ep.wall)/1e9)
		if tr == nil {
			return nil
		}
		ep, err = w.runEpisode(o.seed, tr)
		if err == nil {
			traced = append(traced, ep)
			fmt.Fprintf(o.log, "perfbench: traced episode %d: setup %.4f s, wall %.4f s\n", len(traced), float64(ep.setup)/1e9, float64(ep.wall)/1e9)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &report{deterministic: true, metrics: map[string]float64{}, counts: map[string]float64{}, tr: tr}
	for _, ep := range append(plain, traced...) {
		rep.attempted += ep.refs
		rep.failed += ep.failed
		for _, c := range ep.counts {
			if v, ok := rep.counts[c.Name]; ok && v != c.Value {
				rep.deterministic = false
			}
			rep.counts[c.Name] = c.Value
		}
	}
	setups, _ := durations(plain)
	if !o.trace {
		rep.metrics["setup_s"] = median(setups) / 1e9
		rep.metrics["wall_s"] = typicalWall(plain) / 1e9
		rep.metrics["max_rss_mb"] = maxRSSMB()
		return rep, nil
	}

	for name, v := range rep.counts {
		rep.metrics[name] = v
	}
	n := float64(len(traced))
	var refs float64
	sum := map[string]layerTotal{}
	var setupMem, runMem runtimeDelta
	for _, ep := range traced {
		refs += float64(ep.refs)
		for name, lt := range ep.layers {
			s := sum[name]
			s.busy += lt.busy
			s.self += lt.self
			s.calls += lt.calls
			sum[name] = s
		}
		setupMem = setupMem.plus(ep.setupMem)
		runMem = runMem.plus(ep.runMem)
	}
	for _, l := range []string{"physmem.build", "osmm.populate", "workload.build", "mmu.build"} {
		rep.metrics[l+"_s"] = float64(sum[l].busy) / n / 1e9
	}
	rep.metrics["workload.gen_ns_per_ref"] = float64(sum["workload.gen"].busy) / refs
	rep.metrics["mmu.translate_ns_per_ref"] = float64(sum["mmu.translate"].busy) / refs
	rep.metrics["mmu.self_ns_per_ref"] = float64(sum["mmu.translate"].self) / refs
	for _, op := range coreOpNames {
		rep.metrics[op+"_ns"] = perCall(sum[op])
	}
	rep.metrics["pagetable.walk_ns"] = perCall(sum["pagetable.walk"])
	rep.metrics["cachesim.access_ns"] = perCall(sum["cachesim.access"])
	var batches []float64
	for _, s := range tr.spans {
		if s.Name == "mmu.translate" {
			batches = append(batches, float64(s.End-s.Start)/1e3)
		}
	}
	rep.metrics["mmu.batch_us_p50"] = percentile(batches, 0.50)
	rep.metrics["mmu.batch_us_p99"] = percentile(batches, 0.99)
	rep.metrics["mmu.batch_samples"] = float64(len(batches))
	setupMem.report(rep.metrics, "runtime.setup_", n)
	runMem.report(rep.metrics, "runtime.", n)
	tSetups, tWalls := durations(traced)
	rep.metrics["trace.setup_s"] = mean(tSetups) / 1e9
	rep.metrics["trace.wall_s"] = mean(tWalls) / 1e9
	rep.metrics["trace.overhead_s"] = (typicalWall(traced) - typicalWall(plain)) / 1e9
	rep.metrics["trace.clock_ns"] = clockCost()
	return rep, nil
}

// runRegen measures figure-regen: set-up repeated for a stable median,
// then whole regenerations of every table until the time is used. A
// traced run alternates untraced and traced regenerations.
func runRegen(ctx context.Context, o options) (*report, error) {
	deadline := now() + int64(o.seconds*1e9)
	var plan *regenPlan
	var setups []float64
	var setupMem runtimeDelta
	for i := 0; i < regenSetups; i++ {
		mem := readRuntime(o.trace)
		t0 := now()
		p, err := setupRegen(regenExperiments, o.goldenDir, o.log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0))
		setupMem = setupMem.plus(readRuntime(o.trace).since(mem))
		plan = p
	}

	var plain, traced []*regenResult
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	err := repeat(deadline, minRounds(o), func() error {
		r, err := plan.run(ctx, nil)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		fmt.Fprintf(o.log, "perfbench: regen %d: wall %.4f s %v\n", len(plain), float64(r.wall)/1e9, r.perExp)
		if tr == nil {
			return nil
		}
		r, err = plan.run(ctx, tr)
		if err == nil {
			traced = append(traced, r)
			fmt.Fprintf(o.log, "perfbench: traced regen %d: wall %.4f s %v\n", len(traced), float64(r.wall)/1e9, r.perExp)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &report{deterministic: true, metrics: map[string]float64{}, counts: map[string]float64{}, tr: tr}
	var walls []float64
	for _, r := range append(plain, traced...) {
		rep.attempted += uint64(len(plan.exps))
		rep.failed += uint64(r.failed)
	}
	for _, r := range plain {
		walls = append(walls, float64(r.wall))
	}
	if !o.trace {
		rep.metrics["setup_s"] = median(setups) / 1e9
		rep.metrics["wall_s"] = median(walls) / 1e9
		rep.metrics["max_rss_mb"] = maxRSSMB()
		return rep, nil
	}

	n := float64(len(traced))
	var cells, tWalls []float64
	var runMem runtimeDelta
	for _, r := range traced {
		for i, e := range plan.exps {
			rep.metrics["experiments."+e.Name+".wall_s"] += float64(r.perExp[i]) / n / 1e9
		}
		for _, c := range r.cells {
			cells = append(cells, c.Seconds)
		}
		if v, ok := rep.counts["experiments.cells"]; ok && v != float64(len(r.cells)) {
			rep.deterministic = false
		}
		rep.counts["experiments.cells"] = float64(len(r.cells))
		tWalls = append(tWalls, float64(r.wall))
		runMem = runMem.plus(r.alloc)
	}
	rep.metrics["experiments.cells"] = rep.counts["experiments.cells"]
	rep.metrics["experiments.cell_s_p50"] = percentile(cells, 0.50)
	rep.metrics["experiments.cell_s_max"] = percentile(cells, 1)
	setupMem.report(rep.metrics, "runtime.setup_", float64(len(setups)))
	runMem.report(rep.metrics, "runtime.", n)
	rep.metrics["trace.setup_s"] = median(setups) / 1e9
	rep.metrics["trace.wall_s"] = mean(tWalls) / 1e9
	rep.metrics["trace.overhead_s"] = (median(tWalls) - median(walls)) / 1e9
	rep.metrics["trace.clock_ns"] = clockCost()
	return rep, nil
}

// clockCost measures one reading of the benchmark's clock: what a timed
// core call pays on top of its own work.
func clockCost() float64 {
	const n = 100000
	t0 := now()
	for i := 0; i < n; i++ {
		now()
	}
	return float64(now()-t0) / n
}

// regenSetups is how many times figure-regen's millisecond set-up is
// repeated; setup_s is the median.
const regenSetups = 101

func durations(eps []*episode) (setups, walls []float64) {
	for _, ep := range eps {
		setups = append(setups, float64(ep.setup))
		walls = append(walls, float64(ep.wall))
	}
	return setups, walls
}

func perCall(lt layerTotal) float64 {
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.busy) / float64(lt.calls)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the q-quantile of vs by nearest rank, sorting vs.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

func mean(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t / float64(max(1, len(vs)))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSnap and runtimeDelta track the Go heap across a phase.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
}

type runtimeDelta struct {
	allocBytes, gcCycles float64
}

// readRuntime samples the allocator; it stops the world, so only traced
// runs (on) call it.
func readRuntime(on bool) runtimeSnap {
	if !on {
		return runtimeSnap{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{ms.TotalAlloc, ms.NumGC}
}

func (s runtimeSnap) since(b runtimeSnap) runtimeDelta {
	return runtimeDelta{float64(s.totalAlloc - b.totalAlloc), float64(s.numGC - b.numGC)}
}

func (d runtimeDelta) plus(e runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocBytes + e.allocBytes, d.gcCycles + e.gcCycles}
}

// report stores the per-phase means of n summed deltas.
func (d runtimeDelta) report(ms map[string]float64, prefix string, n float64) {
	ms[prefix+"alloc_mb"] = d.allocBytes / n / (1 << 20)
	ms[prefix+"gc_cycles"] = d.gcCycles / n
}

// checkRecorded compares this run's simulated counts with those an
// earlier run of the same binary, workload and seed recorded, then
// records the union. It reports false when a shared count differs.
func checkRecorded(dir, workload string, seed uint64, counts map[string]float64) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return false, err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, hex.EncodeToString(sum[:8])))
	recorded := map[string]float64{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &recorded); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return false, err
	}
	same := true
	for name, v := range counts {
		if old, ok := recorded[name]; ok && old != v {
			same = false
		}
		recorded[name] = v
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	data, err = json.Marshal(recorded)
	if err != nil {
		return false, err
	}
	return same, os.WriteFile(path, data, 0o644)
}
