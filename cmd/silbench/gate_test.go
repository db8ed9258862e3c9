package main

import (
	"bytes"
	"strings"
	"testing"
)

func mkReport(progs map[string]float64) report {
	var rep report
	for name, ns := range progs {
		rep.Corpus = append(rep.Corpus, result{Name: name, NsPerOp: ns})
		rep.TotalNsPerOp += ns
	}
	return rep
}

func TestCompareReportsPassesWithinLimit(t *testing.T) {
	base := mkReport(map[string]float64{"a": 10e6, "b": 20e6})
	fresh := mkReport(map[string]float64{"a": 10.5e6, "b": 21e6}) // +5%
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err != nil {
		t.Errorf("5%% regression under a 12%% limit must pass: %v", err)
	}
}

func TestCompareReportsFailsOnTotalRegression(t *testing.T) {
	base := mkReport(map[string]float64{"a": 10e6, "b": 20e6})
	fresh := mkReport(map[string]float64{"a": 14e6, "b": 26e6}) // +33%
	var w bytes.Buffer
	err := compareReports(&w, fresh, base, 0.12)
	if err == nil {
		t.Fatal("33% total regression must fail the gate")
	}
	if !strings.Contains(w.String(), "REGRESSION total") {
		t.Errorf("missing loud total-regression message, got: %s", w.String())
	}
}

func TestCompareReportsFailsOnSingleProgramRegression(t *testing.T) {
	// Total stays under the limit (one big program dominates), but one
	// program regresses past twice the budget.
	base := mkReport(map[string]float64{"big": 100e6, "small": 2e6})
	fresh := mkReport(map[string]float64{"big": 100e6, "small": 3e6}) // +50%
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err == nil {
		t.Fatal("a 50% single-program regression must fail the gate")
	}
	if !strings.Contains(w.String(), "REGRESSION small") {
		t.Errorf("missing per-program message, got: %s", w.String())
	}
}

func TestCompareReportsEmptyIntersectionFailsLoudly(t *testing.T) {
	// An all-new corpus shares nothing with the baseline: there is nothing
	// to compare, and the gate must FAIL (explicitly), not pass vacuously.
	base := mkReport(map[string]float64{"old1": 10e6, "old2": 20e6})
	fresh := mkReport(map[string]float64{"new1": 10e6, "new2": 20e6})
	var w bytes.Buffer
	err := compareReports(&w, fresh, base, 0.12)
	if err == nil {
		t.Fatal("empty corpus intersection must fail the gate")
	}
	if !strings.Contains(err.Error(), "empty corpus intersection") {
		t.Errorf("error must name the empty intersection, got: %v", err)
	}
	// Both sides' members are narrated, never silently dropped.
	for _, name := range []string{"old1", "old2", "new1", "new2"} {
		if !strings.Contains(w.String(), name) {
			t.Errorf("gate narration must mention %s, got: %s", name, w.String())
		}
	}
}

func TestCompareReportsEmptyFreshReportFails(t *testing.T) {
	base := mkReport(map[string]float64{"a": 10e6})
	var w bytes.Buffer
	if err := compareReports(&w, report{}, base, 0.12); err == nil {
		t.Fatal("an empty fresh report must fail the gate")
	}
}

func TestCompareReportsUnusableBaselineFails(t *testing.T) {
	var w bytes.Buffer
	// No total at all.
	if err := compareReports(&w, mkReport(map[string]float64{"a": 1e6}), report{}, 0.12); err == nil {
		t.Fatal("a baseline without total_ns_per_op must fail the gate")
	}
	// Shared programs but zeroed timings (schema drift): unusable.
	base := mkReport(map[string]float64{"a": 0})
	base.TotalNsPerOp = 5e6
	if err := compareReports(&w, mkReport(map[string]float64{"a": 1e6}), base, 0.12); err == nil {
		t.Fatal("a baseline whose shared timings are zero must fail the gate")
	}
}

func TestCompareReportsPartialIntersectionComparesSharedOnly(t *testing.T) {
	// Programs outside the intersection must not distort the total: the
	// fresh corpus gained a new expensive program, but the shared part is
	// unchanged, so the gate passes.
	base := mkReport(map[string]float64{"a": 10e6, "gone": 50e6})
	fresh := mkReport(map[string]float64{"a": 10e6, "new": 500e6})
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err != nil {
		t.Errorf("unchanged shared corpus must pass: %v", err)
	}
	if !strings.Contains(w.String(), "new missing from baseline") ||
		!strings.Contains(w.String(), "gone missing from fresh report") {
		t.Errorf("intersection exclusions must be narrated, got: %s", w.String())
	}
}

// withAllocs sets allocs_per_op on every program of rep.
func withAllocs(rep report, allocs map[string]float64) report {
	for i := range rep.Corpus {
		rep.Corpus[i].AllocsPerOp = allocs[rep.Corpus[i].Name]
		rep.TotalAllocsPerOp += rep.Corpus[i].AllocsPerOp
	}
	return rep
}

func TestCompareReportsAllocsWithinLimitPass(t *testing.T) {
	times := map[string]float64{"a": 10e6, "b": 20e6}
	base := withAllocs(mkReport(times), map[string]float64{"a": 1000, "b": 3000})
	fresh := withAllocs(mkReport(times), map[string]float64{"a": 900, "b": 3400}) // +7.5%
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err != nil {
		t.Errorf("7.5%% allocs/op growth under a 12%% limit must pass: %v", err)
	}
	if strings.Contains(w.String(), "skipped") {
		t.Errorf("allocs/op check must run when the baseline has it, got: %s", w.String())
	}
}

func TestCompareReportsFailsOnAllocsRegression(t *testing.T) {
	// Timings unchanged; allocations up 50% in total.
	times := map[string]float64{"a": 10e6, "b": 20e6}
	base := withAllocs(mkReport(times), map[string]float64{"a": 1000, "b": 3000})
	fresh := withAllocs(mkReport(times), map[string]float64{"a": 1000, "b": 5000})
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err == nil {
		t.Fatal("a 50% total allocs/op regression must fail the gate")
	}
	if !strings.Contains(w.String(), "REGRESSION total allocs") {
		t.Errorf("missing allocs/op regression message, got: %s", w.String())
	}
}

func TestCompareReportsBaselineWithoutAllocsSkipsLoudly(t *testing.T) {
	// A baseline from a binary that predates allocs_per_op cannot gate
	// allocations: the check is skipped, and the skip is narrated.
	times := map[string]float64{"a": 10e6, "b": 20e6}
	base := mkReport(times)
	fresh := withAllocs(mkReport(times), map[string]float64{"a": 1000, "b": 3000})
	var w bytes.Buffer
	if err := compareReports(&w, fresh, base, 0.12); err != nil {
		t.Errorf("unchanged timings must pass against an allocs-less baseline: %v", err)
	}
	if !strings.Contains(w.String(), "baseline lacks allocs_per_op; allocs/op check skipped") {
		t.Errorf("skipped allocs/op check must be narrated, got: %s", w.String())
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
}
