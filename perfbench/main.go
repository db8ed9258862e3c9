// Command perfbench is the repository's benchmark. It serves an
// in-process silserver handler (service.New + service.NewHandler, default
// options) on a loopback listener, drives it with one workload, checks
// every output, and prints the workload's metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 they are the per-layer ones: a pseudo-random
// half of the window's requests is traced (the tracing overhead is the
// traced over the untraced p50), then a direct-call pass replays the
// window's first requests through the layers' public functions. Spans are
// written as Chrome trace-event JSON.
//
// Usage (from the repository root, after building):
//
//	perfbench -workload cold-mix -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better, moves string
}

var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "par_statements", unit: "count", better: "higher"},
	{name: "sim_speedup_4p", unit: "x", better: "higher"},
}

// e2e returns the end-to-end metric definition by name.
func e2e(name string) metricDef {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m
		}
	}
	panic("perfbench: no end-to-end metric " + name)
}

var layerMetrics = []metricDef{
	{"http.self_us_p50", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"service.handler_us_p50", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"service.handler_us_p99", "us", "lower", "latency_p99_ms on cold-mix"},
	{"service.cache_hit_ratio", "ratio", "higher", "latency_p50_ms and latency_p99_ms on hot-repeat"},
	{"service.wait_ms_per_miss", "ms", "lower", "latency_p99_ms on cold-mix"},
	{"service.shed", "count", "lower", "error_rate (failed/attempted)"},
	{"service.expired", "count", "lower", "error_rate (failed/attempted)"},
	{"phase.parse_us_per_req", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"phase.fingerprint_us_per_req", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"phase.fixpoint_ms_per_miss", "ms", "lower", "throughput_rps and latency_p50_ms on cold-mix"},
	{"phase.render_us_per_miss", "us", "lower", "latency_p50_ms on cold-mix"},
	{"summarystore.hit_ratio", "ratio", "higher", "latency_p50_ms on edit-stream (writes only on cold-mix)"},
	{"summarystore.invalidations", "count", "lower", "latency_p50_ms on edit-stream"},
	{"sil.compile_us", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"sil.compile_allocs", "allocs", "lower", "latency_p50_ms on hot-repeat"},
	{"fingerprint.us", "us", "lower", "latency_p50_ms on hot-repeat"},
	{"fingerprint.allocs", "allocs", "lower", "latency_p50_ms on hot-repeat"},
	{"analysis.analyze_ms", "ms", "lower", "throughput_rps and latency_p50_ms on cold-mix"},
	{"analysis.allocs", "allocs", "lower", "throughput_rps and heap_peak_mb on cold-mix"},
	{"analysis.alloc_mb", "MiB", "lower", "throughput_rps and heap_peak_mb on cold-mix"},
	{"analysis.fixpoint_steps", "count", "lower", "throughput_rps on cold-mix"},
	{"analysis.contexts", "count", "lower", "throughput_rps on cold-mix"},
	{"analysis.fallback_analyses", "count", "lower", "throughput_rps on cold-mix"},
	{"path.interned_paths", "count", "lower", "heap_peak_mb on cold-mix"},
	{"path.memo_hit_ratio", "ratio", "higher", "throughput_rps on cold-mix"},
	{"par.parallelize_us", "us", "lower", "throughput_rps on cold-mix"},
	{"par.allocs", "allocs", "lower", "throughput_rps on cold-mix"},
	{"go.gc_per_1k_req", "count", "lower", "throughput_rps on cold-mix"},
	{"trace.overhead_ratio", "ratio", "lower", "none: traced over untraced latency_p50_ms"},
}

// setupReps is how many times an end-to-end run builds and warms a
// server; setup_s is their median and the last one is measured.
const setupReps = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	traceFile := flag.String("trace-file", "", "Chrome trace-event output (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	if *traceFile == "" {
		*traceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// report prints one human-readable metric line.
func report(name string, v float64, unit, note string) {
	fmt.Printf("  %-30s %14.4f %-6s %s\n", name, v, unit, note)
}

func run(name string, seed int64, secs float64, traced bool, traceFile string) (*result, error) {
	if secs <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	reps := setupReps
	var tr *tracer
	if traced {
		reps = 1
		tr = newTracer()
	}
	warmRec := newRecorder(false)
	var setups []float64
	var b *bench
	var c *corpus
	var d driver
	for k := 0; k < reps; k++ {
		if b != nil {
			if err := b.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if c, err = loadCorpus(); err != nil {
			return nil, err
		}
		if d, err = newDriver(name, c, seed); err != nil {
			return nil, err
		}
		if b, err = startBench(tr); err != nil {
			return nil, err
		}
		d.warm(b, warmRec)
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("workload %s, seed %d: %s\n", name, seed, d.describe())

	rec := newRecorder(d.cold())
	res := &result{Metrics: map[string]metricValue{}}
	put := func(m metricDef, v float64, note string) {
		res.Metrics[m.name] = metricValue{v, m.unit}
		if m.moves != "" {
			note = strings.TrimSpace(note + " -> " + m.moves)
		}
		report(m.name, v, m.unit, note)
	}
	var err error
	if traced {
		err = runTraced(b, d, tr, secs, rec, traceFile, put)
	} else {
		runE2E(b, d, setups, secs, rec, put)
	}
	if err != nil {
		_ = b.stop() // already failing; the run's error is the one to report
		return nil, err
	}

	base := checkBases(b, c, rec)
	checked, skipped := checkEquivalence(c, rec, seed)
	fmt.Printf("checks: %d corpus verdicts, %d variant verdicts, %d equivalence runs (%d skipped at the step limit)\n",
		len(base), len(rec.variants), checked, skipped)
	if !traced {
		parSum := 0
		for _, n := range d.bases() {
			parSum += base[n].ParStmts
		}
		put(e2e("par_statements"), float64(parSum), fmt.Sprintf("(over %d base programs)", len(d.bases())))
		put(e2e("sim_speedup_4p"), speedup4(c, d.bases(), rec), fmt.Sprintf("(geometric mean over %d base programs)", len(d.bases())))
	}
	if err := b.stop(); err != nil {
		return nil, err
	}
	res.Attempted = rec.attempted
	res.Failed = rec.failed + warmRec.failed
	res.Correct = res.Failed == 0
	for _, p := range append(warmRec.problems, rec.problems...) {
		fmt.Println("FAILED:", p)
	}
	res.Attempted = max(res.Attempted, res.Failed, 1)
	fmt.Printf("  %-30s %14.4f %-6s (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	return res, nil
}

func runE2E(b *bench, d driver, setups []float64, secs float64, rec *recorder, put func(metricDef, float64, string)) {
	w := d.run(b, secs, 0, rec)
	lat := w.latencies()
	n := len(w.samples)
	put(e2e("setup_s"), quantile(setups, 0.5), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	put(e2e("throughput_rps"), float64(w.okCount())/w.elapsed.Seconds(), fmt.Sprintf("(n=%d over %.2fs)", n, w.elapsed.Seconds()))
	put(e2e("latency_p50_ms"), quantile(lat, 0.5), fmt.Sprintf("(n=%d)", len(lat)))
	p99, fewest := w.p99()
	put(e2e("latency_p99_ms"), p99, fmt.Sprintf("(median of the p99s of %d equal spans of the window; the smallest holds %d samples, %d beyond its p99)",
		tailSlices, fewest, fewest-int(math.Ceil(0.99*float64(fewest)))))
	put(e2e("heap_peak_mb"), float64(w.heapPeak)/(1<<20), fmt.Sprintf("(live heap after GC, peak over the first %d requests)", heapRequests))
	put(e2e("cpu_ms_per_req"), float64(w.cpu.Microseconds())/1e3/float64(max(w.okCount(), 1)), "(process CPU time, server and client, per completed request)")
	rec.attempted += n
}

func runTraced(b *bench, d driver, tr *tracer, secs float64, rec *recorder, traceFile string, put func(metricDef, float64, string)) error {
	before, err := b.scrape()
	if err != nil {
		return err
	}
	tr.on.Store(true)
	w := d.run(b, secs, 0, rec)
	tr.on.Store(false)
	after, err := b.scrape()
	if err != nil {
		return err
	}
	rec.attempted += len(w.samples)
	direct, err := directPass(tr, rec.replay)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return err
	}
	if err := tr.write(traceFile); err != nil {
		return err
	}
	ts, err := readTrace(traceFile)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d client spans, %d handler spans, %d direct requests)\n",
		traceFile, len(ts.self[spanClient]), len(ts.self[spanHandler]), len(ts.self[spanDirect]))

	m := map[string]float64{}
	m["http.self_us_p50"] = quantile(ts.self[spanClient], 0.5)
	m["service.handler_us_p50"] = quantile(ts.self[spanHandler], 0.5)
	m["service.handler_us_p99"] = quantile(ts.self[spanHandler], 0.99)
	hits, _ := delta(before, after, "cache_hits")
	misses, _ := delta(before, after, "cache_misses")
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	parse, fp := phaseDelta(before, after, "parse"), phaseDelta(before, after, "fingerprint")
	fix, render := phaseDelta(before, after, "fixpoint"), phaseDelta(before, after, "render")
	// Waiting on a miss: the wrapped handler's time on a miss minus the
	// phases the service timed for it (front-end phases per request,
	// fixpoint and render per miss).
	if len(ts.handlerMis) > 0 && fix.count > 0 && parse.count > 0 {
		perMiss := (fix.sum+render.sum)/fix.count + (parse.sum+fp.sum)/parse.count
		m["service.wait_ms_per_miss"] = (sum(ts.handlerMis)/float64(len(ts.handlerMis)) - perMiss*1e6) / 1e3
	}
	m["service.shed"], _ = delta(before, after, "shed")
	m["service.expired"], _ = delta(before, after, "expired")
	m["phase.parse_us_per_req"] = perCount(parse, 1e6)
	m["phase.fingerprint_us_per_req"] = perCount(fp, 1e6)
	m["phase.fixpoint_ms_per_miss"] = perCount(fix, 1e3)
	m["phase.render_us_per_miss"] = perCount(render, 1e6)
	sh, okH := delta(before, after, "summary_store.hits")
	sm, okM := delta(before, after, "summary_store.misses")
	absent := map[string]bool{}
	if !okH || !okM {
		absent["summarystore.hit_ratio"] = true
	} else if sh+sm > 0 {
		m["summarystore.hit_ratio"] = sh / (sh + sm)
	}
	var okI bool
	if m["summarystore.invalidations"], okI = delta(before, after, "summary_store.invalidations"); !okI {
		absent["summarystore.invalidations"] = true
	}
	calls := float64(max(direct.analyze.calls, 1))
	m["sil.compile_us"] = direct.compile.medianUs()
	m["sil.compile_allocs"] = direct.compile.allocsPerCall()
	m["fingerprint.us"] = direct.fp.medianUs()
	m["fingerprint.allocs"] = direct.fp.allocsPerCall()
	m["analysis.analyze_ms"] = direct.analyze.medianUs() / 1e3
	m["analysis.allocs"] = direct.analyze.allocsPerCall()
	m["analysis.alloc_mb"] = float64(direct.analyze.bytes) / calls / (1 << 20)
	m["analysis.fixpoint_steps"] = float64(direct.steps) / calls
	m["analysis.contexts"] = float64(direct.contexts) / calls
	m["analysis.fallback_analyses"] = float64(direct.fallback) / calls
	m["path.interned_paths"] = float64(direct.space.InternedPaths)
	m["path.memo_hit_ratio"] = direct.space.HitRate()
	m["par.parallelize_us"] = direct.par.medianUs()
	m["par.allocs"] = direct.par.allocsPerCall()
	if len(w.samples) > 0 {
		m["go.gc_per_1k_req"] = float64(w.gcs) * 1000 / float64(len(w.samples))
	}
	untraced, traced := w.latencies(false), w.latencies(true)
	m["trace.overhead_ratio"] = traceOverhead(w)
	fmt.Printf("per-layer metrics (untraced p50 %.4f ms over %d requests, traced p50 %.4f ms over %d; direct pass over %d requests):\n",
		quantile(untraced, 0.5), len(untraced), quantile(traced, 0.5), len(traced), direct.analyze.calls)
	for _, def := range layerMetrics {
		note := ""
		if absent[def.name] {
			note = "(absent from /v1/stats; reported as 0)"
		}
		put(def, m[def.name], note)
	}
	return nil
}

// traceOverhead is the traced over the untraced latency p50, taken within
// each cache outcome (hit, miss) and weighted by the outcome's share: a
// workload's p50 can sit between a fast hit mode and a slow miss mode, where
// a small difference in the two halves' hit shares would swamp the
// tracing cost.
func traceOverhead(w window) float64 {
	ratio, weight := 0.0, 0
	for _, hit := range []bool{false, true} {
		var on, off []float64
		for _, s := range w.samples {
			if s.ok && s.hit == hit {
				if s.traced {
					on = append(on, float64(s.lat))
				} else {
					off = append(off, float64(s.lat))
				}
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		ratio += float64(len(on)+len(off)) * quantile(on, 0.5) / quantile(off, 0.5)
		weight += len(on) + len(off)
	}
	if weight == 0 {
		return 0
	}
	return ratio / float64(weight)
}

func perCount(p phase, scale float64) float64 {
	if p.count <= 0 {
		return 0
	}
	return p.sum / p.count * scale
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
