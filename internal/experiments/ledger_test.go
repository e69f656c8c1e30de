package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"mixtlb/internal/telemetry"
)

// runCSVScaled runs one experiment at QuickScale after applying mutate,
// rendering its table like runExperimentCSV.
func runCSVScaled(t *testing.T, name string, mutate func(*Scale)) string {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := QuickScale()
	s.Jobs = 2
	if mutate != nil {
		mutate(&s)
	}
	tbl, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return "# " + tbl.Title + "\n" + tbl.CSV()
}

// TestLedgerObserverTableInvariance is the end-to-end half of the
// observer contract: running experiments with the tail recorder (and so
// a ledger on every MMU) armed must produce byte-identical tables to
// running without, over every design the experiments drive, victim
// levels included.
func TestLedgerObserverTableInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison is not short")
	}
	for _, name := range []string{"hierarchy", "reach"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			off := runCSVScaled(t, name, nil)
			on := runCSVScaled(t, name, func(s *Scale) {
				s.TailK = 8
			})
			if on != off {
				t.Errorf("ledger-on table differs from ledger-off:\n--- on ---\n%s\n--- off ---\n%s", on, off)
			}
		})
	}
}

// TestBreakdownSharesSumTo100 sanity-checks the stacked table: each
// row's share columns must sum to ~100% (they are percentages of the
// same cycle books, whose total is Stats.Cycles).
func TestBreakdownSharesSumTo100(t *testing.T) {
	csv := runCSVScaled(t, "breakdown", func(s *Scale) {
		s.Workloads = []string{"gups"}
	})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 3 {
		t.Fatalf("breakdown produced no rows:\n%s", csv)
	}
	header := strings.Split(lines[1], ",")
	for _, ln := range lines[2:] {
		fields := strings.Split(ln, ",")
		var sum float64
		for i, h := range header {
			if strings.HasSuffix(h, "%") {
				sum += goldenFloatStr(t, fields[i])
			}
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %q shares sum to %.2f, want ~100", ln, sum)
		}
	}
}

func goldenFloatStr(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric share %q: %v", s, err)
	}
	return v
}

// TestTailEventsExported drives one experiment with telemetry and TailK
// armed and requires "tail" instant events in the tracer, carrying the
// narration args the /debug/tail endpoints render.
func TestTailEventsExported(t *testing.T) {
	e, err := ByName("hierarchy")
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(0)
	s := QuickScale()
	s.Workloads = []string{"gups"}
	s.Jobs = 1
	s.TailK = 4
	s.Telemetry = telemetry.NewCollector(telemetry.NewRegistry(), tracer)
	if _, err := e.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	recs := tracer.TailRecords()
	if len(recs) == 0 {
		t.Fatal("no tail events exported")
	}
	for _, r := range recs[:1] {
		for _, key := range []string{"design", "va", "size", "served", "trail", "rank"} {
			if _, ok := r.Args[key]; !ok {
				t.Errorf("tail record lacks %q: %+v", key, r)
			}
		}
		if r.Cycles == 0 {
			t.Errorf("tail record has zero cycles: %+v", r)
		}
	}
}
