package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// verdict is the part of a result document that is invariant under
// alpha-renaming: names and source positions are not in it.
type verdict struct {
	Shape     string `json:"shape"`
	ExitShape string `json:"exit_shape"`
	Diags     int    `json:"diagnostics"`
	ParStmts  int    `json:"par_statements"`
	Branches  int    `json:"par_branches"`
}

func parseVerdict(body []byte) (verdict, error) {
	var doc struct {
		Shape     string   `json:"shape"`
		ExitShape string   `json:"exit_shape"`
		Diags     []string `json:"diagnostics"`
		ParStmts  int      `json:"par_statements"`
		Branches  int      `json:"par_branches"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return verdict{}, fmt.Errorf("decode result: %w", err)
	}
	return verdict{doc.Shape, doc.ExitShape, len(doc.Diags), doc.ParStmts, doc.Branches}, nil
}

// sample is one timed request.
type sample struct {
	lat    time.Duration // from send
	ok     bool
	hit    bool
	traced bool
	at     time.Duration // completion, since the window started
}

// recorder collects what a window's checks need, keeping the client's own
// footprint small: a hash per fingerprint, not bodies, and the renaming
// invariant fields of variant results.
type recorder struct {
	cold      bool // every request must miss the result cache
	attempted int  // timed requests

	mu       sync.Mutex
	sums     map[string][32]byte // fingerprint -> first body hash
	variants []variantResult
	problems []string
	failed   int
	replay   []request // the first replayN requests, for the direct pass
}

type variantResult struct {
	base string
	v    verdict
}

const replayN = 48

func newRecorder(cold bool) *recorder {
	return &recorder{cold: cold, sums: map[string][32]byte{}}
}

func (r *recorder) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problemLocked(format, args...)
}

// problemLocked counts one failure and keeps the first few messages.
func (r *recorder) problemLocked(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// observe accounts one response and reports whether it succeeded.
func (r *recorder) observe(req request, rep reply, err error) bool {
	if err != nil {
		r.problem("%s: %v", req.Base, err)
		return false
	}
	if rep.status != 200 {
		r.problem("%s: status %d: %.200s", req.Base, rep.status, rep.body)
		return false
	}
	var v verdict
	if req.Variant && !rep.hit {
		var perr error
		if v, perr = parseVerdict(rep.body); perr != nil {
			r.problem("%s: %v", req.Base, perr)
			return false
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.replay) < replayN {
		r.replay = append(r.replay, req)
	}
	if first, seen := r.sums[rep.fp]; !seen {
		r.sums[rep.fp] = rep.sum
	} else if first != rep.sum {
		r.problemLocked("%s: body for fingerprint %s differs from its first response", req.Base, rep.fp)
	}
	if r.cold && rep.hit {
		r.problemLocked("%s: cold-mix request hit the result cache", req.Base)
	}
	if req.Variant && !rep.hit {
		r.variants = append(r.variants, variantResult{req.Base, v})
	}
	return true
}

// source yields the i-th request of a window and its encoded body.
type source func(i int) (request, []byte)

// window is one measured interval.
type window struct {
	samples  []sample
	elapsed  time.Duration // first send to last completion
	heapPeak uint64        // bytes, live heap over the first heapRequests requests
	gcs      uint64
	cpu      time.Duration // process CPU time (user+system) over the window
}

func (w window) latencies(only ...bool) []float64 {
	out := make([]float64, 0, len(w.samples))
	for _, s := range w.samples {
		if s.ok && (len(only) == 0 || s.traced == only[0]) {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// tailSlices is how many equal spans of time latency_p99_ms is taken
// over: the metric is the median of the spans' p99s, so a stall of a few
// seconds (this benchmark runs on shared, noisy machines) moves one span,
// not the metric. Every span of a 30-second window at 200 requests per
// second or more holds about 1200 samples, ten or more beyond its p99.
const tailSlices = 5

// p99 returns the median over tailSlices spans of the window of each
// span's latency p99 (ms), and the smallest span's sample count.
func (w window) p99() (float64, int) {
	spans := make([][]float64, tailSlices)
	span := w.elapsed/tailSlices + 1
	for _, s := range w.samples {
		if s.ok {
			i := min(int(s.at/span), tailSlices-1)
			spans[i] = append(spans[i], float64(s.lat.Nanoseconds())/1e6)
		}
	}
	p99s := make([]float64, 0, tailSlices)
	fewest := -1
	for _, l := range spans {
		if len(l) > 0 {
			p99s = append(p99s, quantile(l, 0.99))
		}
		if fewest < 0 || len(l) < fewest {
			fewest = len(l)
		}
	}
	return quantile(p99s, 0.5), fewest
}

func (w window) okCount() int {
	n := 0
	for _, s := range w.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// send issues one request. While tracing is on, a pseudo-random half of
// the requests is traced (a hash of a counter, so the choice cannot line
// up with a workload's period), and the untraced half measures the same
// mix without the tracing overhead.
func (b *bench) send(req request, body []byte, rec *recorder) sample {
	var id, spanID int64
	var start time.Duration
	t := b.tracer
	traced := t != nil && t.on.Load() && mix64(uint64(t.flip.Add(1)))&1 == 0
	if traced {
		id, spanID = t.newID(), t.newID()
		t.clientSpan.Store(id, spanID)
		start = t.now()
	}
	rep, err := b.analyze(body, id)
	if traced {
		t.record(span{id: spanID, req: id, name: spanClient, tid: 1, start: start, end: t.now()})
		t.clientSpan.Delete(id)
	}
	ok := rec.observe(req, rep, err)
	return sample{ok: ok, hit: ok && rep.hit, traced: traced}
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until secs have passed.
func (b *bench) closedLoop(clients int, secs float64, src source, rec *recorder) window {
	var next, completed atomic.Int64
	var mu sync.Mutex
	var w window
	stopHeap := sampleHeap(&w, &completed)
	gc0, cpu0 := gcCycles(), cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	var last time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var end time.Time
			for time.Now().Before(deadline) {
				req, body := src(int(next.Add(1) - 1))
				t0 := time.Now()
				s := b.send(req, body, rec)
				end = time.Now()
				s.lat, s.at = end.Sub(t0), end.Sub(start)
				local = append(local, s)
				completed.Add(1)
			}
			mu.Lock()
			w.samples = append(w.samples, local...)
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = last.Sub(start)
	w.gcs = gcCycles() - gc0
	w.cpu = cpuTime() - cpu0
	stopHeap()
	return w
}

// heapRequests is the request count over which heap_peak_mb is taken.
// The server's live heap grows with the programs it has seen (result
// cache, summary store, per-session tables), so a peak over the whole
// window would grow with throughput; a fixed request budget keeps the
// metric comparable between a slower and a faster build.
const heapRequests = 3000

// sampleHeap polls the live heap (as of the last GC) until the returned
// stop function is called, keeping in w.heapPeak the peak seen while
// fewer than heapRequests requests have completed.
func sampleHeap(w *window, completed *atomic.Int64) func() {
	runtime.GC() // start the window from a collected heap
	stop := make(chan struct{})
	done := make(chan struct{})
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for completed.Load() < heapRequests {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				w.heapPeak = max(w.heapPeak, s[0].Value.Uint64())
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
