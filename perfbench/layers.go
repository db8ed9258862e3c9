package main

// The direct-call pass of the traced run: one goroutine replays a
// window's requests through the layers' public functions, timing each
// call and counting its allocations from runtime.MemStats deltas.

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/service"
	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// callStats accumulates one layer's calls.
type callStats struct {
	us     []float64
	allocs uint64
	bytes  uint64
	calls  int
}

func (c *callStats) medianUs() float64 { return quantile(c.us, 0.5) }

func (c *callStats) allocsPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.allocs) / float64(c.calls)
}

type directResult struct {
	compile, fp, analyze, par callStats
	steps, contexts, fallback int
	space                     path.SpaceStats
}

// timed runs f as one traced span under parent and charges its time and
// allocations to st.
func timed(t *tracer, name string, parent, req int64, st *callStats, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := t.now()
	f()
	end := t.now()
	runtime.ReadMemStats(&m1)
	t.record(span{id: t.newID(), parent: parent, req: req, name: name, tid: 2, start: start, end: end})
	st.us = append(st.us, float64((end-start).Nanoseconds())/1e3)
	st.allocs += m1.Mallocs - m0.Mallocs
	st.bytes += m1.TotalAlloc - m0.TotalAlloc
	st.calls++
}

func directPass(t *tracer, reqs []request) (directResult, error) {
	var r directResult
	ps := path.NewSpace()
	sp := matrix.NewSpace(ps)
	for _, req := range reqs {
		id, root := t.newID(), t.newID()
		start := t.now()
		var prog *ast.Program
		var err error
		timed(t, spanCompile, root, id, &r.compile, func() { prog, err = progs.Compile(req.Source) })
		if err != nil {
			return r, fmt.Errorf("compile %s: %w", req.Base, err)
		}
		roots := append([]string(nil), req.Roots...)
		sort.Strings(roots)
		opts := analysis.Options{ExternalRoots: roots, Space: sp}
		timed(t, spanFp, root, id, &r.fp, func() { _ = service.ProgramFingerprint(printer.Print(prog), opts) })
		var info *analysis.Info
		timed(t, spanAnalyze, root, id, &r.analyze, func() { info, err = analysis.Analyze(context.Background(), prog, opts) })
		if err != nil {
			return r, fmt.Errorf("analyze %s: %w", req.Base, err)
		}
		timed(t, spanPar, root, id, &r.par, func() { par.Parallelize(info, par.DefaultOptions) })
		t.record(span{id: root, req: id, name: spanDirect, tid: 2, start: start, end: t.now()})
		ct := info.ContextTableStats()
		r.steps += info.FixpointSteps
		r.contexts += ct.Exact
		r.fallback += ct.FallbackAnalyses
	}
	r.space = ps.Stats()
	return r, nil
}
