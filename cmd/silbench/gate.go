package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The -baseline regression gate, split out of main so the comparison is
// unit-testable. The gate compares corpus INTERSECTIONS (a baseline from
// an older binary may lack programs added since, and vice versa) — and it
// must fail LOUDLY when that intersection is empty: a renamed or all-new
// corpus shares nothing with the baseline, and silently passing such a
// comparison would turn the gate into a no-op exactly when the benchmark
// surface changed the most.

// gateRegression loads the baseline file and applies compareReports,
// narrating to w (os.Stderr in production).
func gateRegression(w io.Writer, fresh report, baselineFile string, maxRegress float64) error {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	if err := compareReports(w, fresh, base, maxRegress); err != nil {
		return fmt.Errorf("%w (vs %s)", err, baselineFile)
	}
	return nil
}

// compareReports gates fresh against base: an error means the gate fails
// (regression, or a comparison that would be vacuous). Totals — ns/op and
// allocs/op — are compared over the corpus intersection; programs outside
// it are reported, never silently dropped. Per-program ns/op checks use
// twice the total budget — individual programs are noisier than the corpus
// sum. A baseline from a binary that predates allocs_per_op skips the
// allocation check, saying so.
func compareReports(w io.Writer, fresh, base report, maxRegress float64) error {
	if base.TotalNsPerOp <= 0 {
		return fmt.Errorf("baseline has no total_ns_per_op")
	}
	baseByName := make(map[string]result, len(base.Corpus))
	for _, r := range base.Corpus {
		baseByName[r.Name] = r
	}
	freshNames := make(map[string]bool, len(fresh.Corpus))
	var shared int
	var freshTotal, baseTotal, freshAllocs, baseAllocs float64
	baseHasAllocs := true
	for _, r := range fresh.Corpus {
		freshNames[r.Name] = true
		if b, ok := baseByName[r.Name]; ok {
			shared++
			freshTotal += r.NsPerOp
			baseTotal += b.NsPerOp
			freshAllocs += r.AllocsPerOp
			baseAllocs += b.AllocsPerOp
			baseHasAllocs = baseHasAllocs && b.AllocsPerOp > 0
		} else {
			fmt.Fprintf(w, "gate: %s missing from baseline; excluded from the total\n", r.Name)
		}
	}
	for _, r := range base.Corpus {
		if !freshNames[r.Name] {
			fmt.Fprintf(w, "gate: %s missing from fresh report; excluded from the total\n", r.Name)
		}
	}
	if shared == 0 {
		// An all-new (or renamed) corpus must not pass vacuously: there is
		// nothing to compare, which is a gate failure, not a gate pass.
		return fmt.Errorf("empty corpus intersection: baseline has %d program(s), fresh report has %d, none shared — cannot gate",
			len(base.Corpus), len(fresh.Corpus))
	}
	if baseTotal <= 0 {
		return fmt.Errorf("baseline total over the %d shared program(s) is zero — baseline is unusable", shared)
	}
	var failures []string
	if r := freshTotal/baseTotal - 1; r > maxRegress {
		failures = append(failures, fmt.Sprintf(
			"total: %.2fms -> %.2fms (+%.1f%%, limit %.0f%%)",
			baseTotal/1e6, freshTotal/1e6, r*100, maxRegress*100))
	}
	if !baseHasAllocs {
		fmt.Fprintln(w, "gate: baseline lacks allocs_per_op; allocs/op check skipped")
	} else if r := freshAllocs/baseAllocs - 1; r > maxRegress {
		failures = append(failures, fmt.Sprintf(
			"total allocs: %.0f/op -> %.0f/op (+%.1f%%, limit %.0f%%)",
			baseAllocs, freshAllocs, r*100, maxRegress*100))
	}
	for _, r := range fresh.Corpus {
		b, ok := baseByName[r.Name]
		if !ok || b.NsPerOp < 1e6 {
			// New program, or one measured in microseconds — per-program
			// timings below ~1ms are dominated by scheduler/GC noise; the
			// total still covers them.
			continue
		}
		if reg := r.NsPerOp/b.NsPerOp - 1; reg > 2*maxRegress {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0fns -> %.0fns (+%.1f%%, limit %.0f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, reg*100, 2*maxRegress*100))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "REGRESSION "+f)
		}
		return fmt.Errorf("%d regression(s)", len(failures))
	}
	return nil
}

// median returns the middle value (mean of the middle two for even
// lengths) of an unsorted sample set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
