package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
	"mixtlb/internal/workload"
)

// result is the parsed last line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark in-process and parses its last line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	dir := t.TempDir()
	args = append([]string{"--seconds", "0.01", "--state-dir", filepath.Join(dir, "counts"),
		"--spans-out", filepath.Join(dir, "spans.jsonl"), "--golden-dir", filepath.Join("..", goldenDir)}, args...)
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// shortDirect shrinks the direct workloads to a few batches for the
// duration of a test.
func shortDirect(t *testing.T) {
	saved := directWorkloads
	directWorkloads = map[string]directWorkload{}
	for name, w := range saved {
		w.warmup, w.measure = 4*batch, 16*batch
		directWorkloads[name] = w
	}
	t.Cleanup(func() { directWorkloads = saved })
}

// shortRegen restricts figure-regen to its cheapest experiment.
func shortRegen(t *testing.T) {
	saved := regenExperiments
	regenExperiments = []string{"invalidation"}
	t.Cleanup(func() { regenExperiments = saved })
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and requires every metric it names, with its unit and no other.
func TestSmoke(t *testing.T) {
	shortDirect(t)
	shortRegen(t)
	bf := readBenchFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want, flag := bf.EndToEnd, "0"
			if traced {
				want, flag = bf.PerLayer, "1"
			}
			r := runBench(t, "--workload", w.Name, "--seed", "3", "--trace", flag)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, flag, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, flag, len(r.Metrics), len(want))
			}
			for _, m := range want {
				if !valid.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: %s printed as %+v (present %v), want unit %s", w.Name, flag, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestTracedSpansAddUp checks the traced run's accounting: the set-up
// steps sum to the set-up time and generation plus translation sum to
// the timed phase, each within the measured tracing overhead.
func TestTracedSpansAddUp(t *testing.T) {
	shortDirect(t)
	for name, w := range directWorkloads {
		r := runBench(t, "--workload", name, "--seed", "5", "--trace", "1")
		v := func(n string) float64 { return r.Metrics[n].Value }
		tol := math.Abs(v("trace.overhead_s")) + 1e-4
		steps := v("physmem.build_s") + v("osmm.populate_s") + v("workload.build_s") + v("mmu.build_s")
		if d := math.Abs(steps - v("trace.setup_s")); d > tol {
			t.Errorf("%s: set-up steps sum to %.6f s, set-up took %.6f s", name, steps, v("trace.setup_s"))
		}
		refs := float64(w.warmup + w.measure)
		timed := (v("workload.gen_ns_per_ref") + v("mmu.translate_ns_per_ref")) * refs / 1e9
		if d := math.Abs(timed - v("trace.wall_s")); d > tol {
			t.Errorf("%s: generate+translate sum to %.6f s, timed phase took %.6f s", name, timed, v("trace.wall_s"))
		}
		if v("core.lookup_calls") == 0 || v("mmu.batch_samples") == 0 {
			t.Errorf("%s: traced run recorded no core calls or batches", name)
		}
	}
}

// TestWrongGoldenFails shows the figure-regen check can fail: a golden
// with one changed byte is reported as a failed operation.
func TestWrongGoldenFails(t *testing.T) {
	shortRegen(t)
	golden, err := os.ReadFile(filepath.Join("..", goldenDir, "invalidation.csv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wrong := bytes.Replace(golden, []byte("mix"), []byte("miX"), 1)
	if err := os.WriteFile(filepath.Join(dir, "invalidation.csv"), wrong, 0o644); err != nil {
		t.Fatal(err)
	}
	r := runBench(t, "--workload", "figure-regen", "--golden-dir", dir)
	if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
		t.Errorf("wrong golden: correct=%v attempted=%d failed=%d, want a failure", r.Correct, r.Attempted, r.Failed)
	}
}

// TestCountsRepeatAcrossRuns shows the cross-run determinism check: a
// second run of a seed agrees with the first, and a recorded count that
// no longer matches makes the run incorrect.
func TestCountsRepeatAcrossRuns(t *testing.T) {
	shortDirect(t)
	state := t.TempDir()
	args := []string{"--workload", "basepage-walk", "--seed", "7", "--seconds", "0.01", "--state-dir", state}
	for i := 0; i < 2; i++ {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 || !strings.Contains(out.String(), `"correct":true`) {
			t.Fatalf("run %d: exit %d, %s%s", i, code, out.String(), errOut.String())
		}
	}
	files, err := filepath.Glob(filepath.Join(state, "basepage-walk-seed7-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("recorded counts: %v %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"mmu.walks_per_1k": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("tampered record: exit %d, %s, want correct=false", code, out.String())
	}
}

// TestSeedsGiveDifferentStreams backs held-out-seed claims: the seed
// reaches the generated references, and the same seed repeats them.
func TestSeedsGiveDifferentStreams(t *testing.T) {
	for name, w := range directWorkloads {
		spec, err := workload.ByName(w.stream)
		if err != nil {
			t.Fatal(err)
		}
		refs := func(seed uint64) []workload.Ref {
			buf := make([]workload.Ref, 4096)
			workload.FillBatch(spec.Build(addr.V(1<<40), 64<<20, simrand.New(seed)), buf)
			return buf
		}
		a, b, c := refs(1), refs(1), refs(2)
		same := func(x, y []workload.Ref) bool {
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: one seed gave two streams", name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}
