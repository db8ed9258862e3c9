package main

// Span tracing for the traced run. Spans are recorded by the benchmark
// around calls into each layer (the HTTP client round trip, the wrapped
// service handler, and the direct calls of the replay pass), kept in
// memory, and written at the end as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Per-layer self time is computed
// back from that file.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// Span names, one per layer boundary.
const (
	spanClient  = "http.client"     // client round trip; parent of the handler span
	spanHandler = "service.handler" // the wrapped silserver handler
	spanDirect  = "direct.request"  // one replayed request of the direct-call pass
	spanCompile = "sil.compile"
	spanFp      = "fingerprint"
	spanAnalyze = "analysis.analyze"
	spanPar     = "par.parallelize"
)

type span struct {
	id, parent, req int64
	name            string
	tid             int
	start, end      time.Duration // since the tracer's origin
	hit             bool          // handler spans: the response was a cache hit
}

type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// clientSpan maps a request ID to its client span, so the handler
	// span can name it as parent.
	clientSpan sync.Map
	on         atomic.Bool
	flip       atomic.Int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times the service handler for requests carrying a request ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqIDHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(id, 10, 64) // the benchmark's own header; a bad value only loses the parent link
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		var parent int64
		if v, ok := t.clientSpan.Load(req); ok {
			parent = v.(int64)
		}
		t.record(span{id: t.newID(), parent: parent, req: req, name: spanHandler, tid: 100, start: start, end: end,
			hit: w.Header().Get(service.CacheHeader) == "hit"})
	})
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req, "hit": s.hit},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceSummary holds, per span name, every span's self time in
// microseconds (its duration minus the part of its interval its children
// cover), plus the durations of the handler spans that missed the cache.
type traceSummary struct {
	self       map[string][]float64
	handlerMis []float64
}

// readTrace computes the summary from a written trace file.
func readTrace(path string) (traceSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return traceSummary{}, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return traceSummary{}, fmt.Errorf("decode trace: %w", err)
	}
	type iv struct{ a, b float64 }
	children := map[int64][]iv{}
	for _, e := range doc.TraceEvents {
		p := int64(num(e.Args["parent"]))
		if p != 0 {
			children[p] = append(children[p], iv{e.Ts, e.Ts + e.Dur})
		}
	}
	out := traceSummary{self: map[string][]float64{}}
	for _, e := range doc.TraceEvents {
		a, b := e.Ts, e.Ts+e.Dur
		kids := children[int64(num(e.Args["id"]))]
		sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
		covered, reach := 0.0, a
		for _, k := range kids {
			lo, hi := max(k.a, reach), min(k.b, b)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out.self[e.Name] = append(out.self[e.Name], e.Dur-covered)
		if e.Name == spanHandler && e.Args["hit"] != true {
			out.handlerMis = append(out.handlerMis, e.Dur)
		}
	}
	return out, nil
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
