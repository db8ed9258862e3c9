// Command silbench runs the analysis pipeline over the internal/progs
// corpus and emits a machine-readable benchmark report, so every PR leaves
// a perf trajectory behind (CI uploads the file as an artifact).
//
// Usage:
//
//	silbench [-out BENCH_analysis.json] [-iters 25] [-samples 1] [-workers 0]
//	         [-min-ms 200] [-ctx 0] [-reset] [-baseline FILE] [-max-regress 0.15]
//
// For each corpus program it measures the full analyze+parallelize path
// (the hot path this repository optimizes) and reports ns/op alongside the
// analysis verdicts, plus the path.Space table statistics (sizes and memo
// hit rate). -ctx selects the summary mode: 0 runs the default
// context-sensitive table (cap analysis.DefaultMaxContexts), a positive
// value overrides the cap, and a negative value disables context
// sensitivity ("merged mode", the pre-context behavior); the report
// carries the mode plus per-program context-table statistics so the two
// modes leave separately gateable trajectories. With -reset it then resets the process Space — the long-lived
// service epoch boundary — and records the post-reset counters, proving
// the intern/memo memory is returned. With -baseline it compares the fresh
// numbers against a stored report and exits non-zero on regression: the CI
// gate fails a PR when total corpus ns/op or allocs/op regresses by more
// than -max-regress (default 15%), or any single program's ns/op by twice
// that. With
// -samples N each program is measured N times and the per-program MEDIAN
// ns/op is reported — the CI gate runs 5 samples so one descheduled
// measurement on a shared runner cannot fail (or mask) a regression; the
// median is robust where the mean is not.
//
// With -server the tool switches to the serving-layer load mode instead:
//
//	silbench -server [-clients 8] [-requests 200] [-zipf 1.2] [-cache 256]
//	         [-shards 1] [-ctx 0] [-out BENCH_server.json]
//
// It starts an in-process silserver (internal/service), drives it with N
// concurrent HTTP clients issuing a Zipf-skewed corpus mix, and reports
// cold (cache-miss) vs warm (cache-hit) latency percentiles, the hit rate,
// and the server's /stats counters — a non-gating measurement artifact.
// -shards mirrors silserver -shards (fingerprint-sharded serving); the
// report then carries per-shard counters alongside the aggregate, so the
// sharded and single-shard artifacts compare directly.
//
// With -edit-replay the tool measures the incremental-analysis path
// instead:
//
//	silbench -edit-replay [-samples 3] [-ctx 0] [-out BENCH_incremental.json]
//
// For each corpus program it synthesizes a single-procedure edit, replays
// it against a summary-store-backed service, and reports cold / seeded
// resubmit / warm-after-edit / cache-hit latencies plus the fixpoint step
// counts showing how much of the program an edit actually re-analyzes
// (see editreplay.go). Non-gating, like -server.
package main

import (
	"context"

	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
)

// result is the per-program benchmark record.
type result struct {
	Name          string  `json:"name"`
	Iters         int     `json:"iters"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"` // heap allocations per iteration; absent in older reports
	Diags         int     `json:"diags"`
	Shape         string  `json:"shape"`
	ExitShape     string  `json:"exit_shape"`
	ParStatements int     `json:"par_statements"`
	// Context-table statistics (zero in merged mode): live exact contexts,
	// procedures that grew a merged fallback, and cap evictions.
	Contexts    int `json:"contexts"`
	MergedProcs int `json:"merged_procs"`
	Evictions   int `json:"evictions"`
	// Lazy-fallback statistics: procedures whose merged fallback found a
	// consumer and was analyzed, the fixpoint analyses those fallbacks
	// consumed, and live shared-exit aliases (read-only procedures bound
	// to a covering converged context instead of re-analyzed). Absent
	// (zero) in reports from binaries that predate them; the -baseline
	// gate only reads the timing and allocation fields, so old and new
	// reports compare freely in either direction.
	FallbacksActivated int `json:"fallbacks_activated,omitempty"`
	FallbackAnalyses   int `json:"fallback_analyses,omitempty"`
	ExitsShared        int `json:"exits_shared,omitempty"`
}

// spaceStats is the JSON rendering of path.SpaceStats plus the matrix
// handle table, the epoch-scoped cache hierarchy of the analysis.
type spaceStats struct {
	Epoch           uint64  `json:"epoch"`
	InternedPaths   int     `json:"interned_paths"`
	InternedHandles int     `json:"interned_handles"`
	MemoVerdicts    int     `json:"memo_verdicts"`
	ResidueEntries  int     `json:"residue_entries"`
	MemoHits        uint64  `json:"memo_hits"`
	MemoMisses      uint64  `json:"memo_misses"`
	MemoHitRate     float64 `json:"memo_hit_rate"`
}

func snapshotSpace() spaceStats {
	st := path.DefaultSpace().Stats()
	return spaceStats{
		Epoch:           st.Epoch,
		InternedPaths:   st.InternedPaths,
		InternedHandles: matrix.InternedHandles(),
		MemoVerdicts:    st.Verdicts(),
		ResidueEntries:  st.ResidueEntries,
		MemoHits:        st.MemoHits,
		MemoMisses:      st.MemoMisses,
		MemoHitRate:     st.HitRate(),
	}
}

// report is the whole BENCH_analysis.json document.
type report struct {
	Schema    string    `json:"schema"`
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Workers   int       `json:"workers"`
	// Mode is "context" (per-context summaries) or "merged" (single
	// summary per procedure); MaxContexts is the effective table cap;
	// Samples is how many measurement passes the per-program medians were
	// taken over (absent/zero in reports from binaries predating it).
	Mode         string   `json:"mode"`
	MaxContexts  int      `json:"max_contexts"`
	Samples      int      `json:"samples,omitempty"`
	Corpus       []result `json:"corpus"`
	TotalNsPerOp float64  `json:"total_ns_per_op"`
	// TotalAllocsPerOp sums the per-program allocs_per_op.
	TotalAllocsPerOp float64 `json:"total_allocs_per_op,omitempty"`
	// InternedPaths and MemoVerdicts stay at top level for older readers;
	// Space carries the full table statistics.
	InternedPaths   int         `json:"interned_paths"`
	MemoVerdicts    int         `json:"memo_verdicts"`
	Space           spaceStats  `json:"space"`
	SpaceAfterReset *spaceStats `json:"space_after_reset,omitempty"`
}

func main() {
	log.SetFlags(0)
	out := flag.String("out", "BENCH_analysis.json", "output file (- for stdout)")
	iters := flag.Int("iters", 25, "fixed iterations per program (0 = time-based)")
	samples := flag.Int("samples", 1, "measurement passes per program; the reported ns/op is the per-program median")
	minMS := flag.Int("min-ms", 200, "minimum measurement time per program when iters=0")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = default)")
	ctx := flag.Int("ctx", 0, "context-table cap: 0 = default, >0 = override, <0 = merged mode (context-insensitive)")
	reset := flag.Bool("reset", false, "reset the path.Space after measuring and record the post-reset counters")
	baseline := flag.String("baseline", "", "baseline BENCH_analysis.json to gate regressions against")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed total ns/op regression vs -baseline (fraction)")
	server := flag.Bool("server", false, "server load mode: drive an in-process silserver with concurrent clients over a Zipf-skewed corpus mix")
	clients := flag.Int("clients", 8, "server mode: concurrent clients")
	requests := flag.Int("requests", 200, "server mode: requests per client")
	zipfS := flag.Float64("zipf", 1.2, "server mode: Zipf skew parameter s (>1; larger = more skewed)")
	cacheCap := flag.Int("cache", 256, "server mode: result-cache capacity (negative disables)")
	shards := flag.Int("shards", 1, "server mode: fingerprint shards (silserver -shards)")
	editReplay := flag.Bool("edit-replay", false, "edit-replay mode: measure warm re-analysis of singly-edited corpus programs against the summary store")
	flag.Parse()

	if *editReplay {
		out := *out
		if out == "BENCH_analysis.json" {
			out = "BENCH_incremental.json"
		}
		if err := runEditReplay(editReplayConfig{
			Out: out, Samples: *samples, Workers: *workers, MaxContexts: *ctx,
		}); err != nil {
			log.Fatalf("edit-replay mode: %v", err)
		}
		return
	}

	if *server {
		if err := runServerLoad(serverLoadConfig{
			Out: *out, Clients: *clients, Requests: *requests, ZipfS: *zipfS,
			Cache: *cacheCap, Workers: *workers, MaxContexts: *ctx, Shards: *shards,
		}); err != nil {
			log.Fatalf("server load mode: %v", err)
		}
		return
	}

	modeOpts := analysis.Options{Workers: *workers, MaxContexts: *ctx}
	mode := "context"
	if !modeOpts.ContextSensitive() {
		mode = "merged"
	}
	rep := report{
		Schema:      "sil-bench/v3",
		Timestamp:   time.Now().UTC(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workers:     modeOpts.EffectiveWorkers(),
		Mode:        mode,
		MaxContexts: *ctx,
		Samples:     *samples,
	}
	for _, e := range progs.Catalog {
		r, err := benchOne(e, *iters, *samples, time.Duration(*minMS)*time.Millisecond, *workers, *ctx)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		rep.Corpus = append(rep.Corpus, r)
		rep.TotalNsPerOp += r.NsPerOp
		rep.TotalAllocsPerOp += r.AllocsPerOp
		fmt.Fprintf(os.Stderr, "%-16s %12.0f ns/op %8.0f allocs/op  shape=%-6s diags=%d parstmts=%d ctxs=%d fbAct=%d fbAna=%d shared=%d\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.Shape, r.Diags, r.ParStatements, r.Contexts,
			r.FallbacksActivated, r.FallbackAnalyses, r.ExitsShared)
	}
	rep.Space = snapshotSpace()
	rep.InternedPaths = rep.Space.InternedPaths
	rep.MemoVerdicts = rep.Space.MemoVerdicts
	fmt.Fprintf(os.Stderr, "space: %d paths, %d handles, %d verdicts, hit rate %.3f\n",
		rep.Space.InternedPaths, rep.Space.InternedHandles, rep.Space.MemoVerdicts, rep.Space.MemoHitRate)
	if *reset {
		path.DefaultSpace().Reset()
		after := snapshotSpace()
		rep.SpaceAfterReset = &after
		fmt.Fprintf(os.Stderr, "after reset: %d paths, %d handles, %d verdicts (epoch %d)\n",
			after.InternedPaths, after.InternedHandles, after.MemoVerdicts, after.Epoch)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (total %.2f ms/op, %.0f allocs/op over %d programs)\n",
			*out, rep.TotalNsPerOp/1e6, rep.TotalAllocsPerOp, len(rep.Corpus))
	}
	if *baseline != "" {
		if err := gateRegression(os.Stderr, rep, *baseline, *maxRegress); err != nil {
			log.Fatalf("benchmark regression gate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "regression gate passed (limit %.0f%%)\n", *maxRegress*100)
	}
}

// benchOne measures one corpus program end to end (compile once, then
// analyze+parallelize per iteration, which is the optimized hot path).
// With samples > 1 the whole measurement repeats and the reported ns/op is
// the median over the passes, which a single descheduled pass on a noisy
// runner cannot move. Allocations are counted from runtime.MemStats read
// outside the timed region.
func benchOne(e progs.Entry, iters, samples int, minTime time.Duration, workers, maxContexts int) (result, error) {
	prog, err := progs.Compile(e.Source)
	if err != nil {
		return result{}, err
	}
	opts := analysis.Options{ExternalRoots: e.Roots, Workers: workers, MaxContexts: maxContexts}
	run := func() (*analysis.Info, *par.Result, error) {
		info, err := analysis.Analyze(context.Background(), prog, opts)
		if err != nil {
			return nil, nil, err
		}
		return info, par.Parallelize(info, par.DefaultOptions), nil
	}
	// Warm up once (also populates the process-wide memo tables the way a
	// long-lived service would see them).
	info, parRes, err := run()
	if err != nil {
		return result{}, err
	}
	if samples < 1 {
		samples = 1
	}
	perSample := make([]float64, 0, samples)
	allocSamples := make([]float64, 0, samples)
	totalIters := 0
	var ms runtime.MemStats
	for s := 0; s < samples; s++ {
		var elapsed time.Duration
		n := 0
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		for {
			if _, _, err := run(); err != nil {
				return result{}, err
			}
			n++
			elapsed = time.Since(start)
			if iters > 0 {
				if n >= iters {
					break
				}
			} else if elapsed >= minTime {
				break
			}
		}
		runtime.ReadMemStats(&ms)
		totalIters += n
		perSample = append(perSample, float64(elapsed.Nanoseconds())/float64(n))
		allocSamples = append(allocSamples, float64(ms.Mallocs-mallocs)/float64(n))
	}
	ct := info.ContextTableStats()
	return result{
		Name:               e.Name,
		Iters:              totalIters,
		NsPerOp:            median(perSample),
		AllocsPerOp:        median(allocSamples),
		Diags:              len(info.Diags),
		Shape:              info.Shape().String(),
		ExitShape:          info.ExitShape().String(),
		ParStatements:      parRes.Stats.ParStatements,
		Contexts:           ct.Exact,
		MergedProcs:        ct.MergedProcs,
		Evictions:          ct.Evictions,
		FallbacksActivated: ct.FallbacksActivated,
		FallbackAnalyses:   ct.FallbackAnalyses,
		ExitsShared:        ct.ExitsShared,
	}, nil
}
