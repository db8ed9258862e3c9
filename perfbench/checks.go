package main

// Output checks and the deterministic precision guards. All of this runs
// after the timed window.

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
	silrt "repro/internal/runtime"
)

// expectedCorpus pins the verdict of every corpus program: shape,
// exit_shape, diagnostic count and par_statements, as rendered by
// silserver for the unrenamed program with its catalog roots.
//
//go:embed expected_corpus.json
var expectedCorpusJSON []byte

type expectedVerdict struct {
	Shape     string `json:"shape"`
	ExitShape string `json:"exit_shape"`
	Diags     int    `json:"diagnostics"`
	ParStmts  int    `json:"par_statements"`
}

func loadExpected() (map[string]expectedVerdict, error) {
	var out map[string]expectedVerdict
	if err := json.Unmarshal(expectedCorpusJSON, &out); err != nil {
		return nil, fmt.Errorf("expected_corpus.json: %w", err)
	}
	return out, nil
}

// checkBases submits every unrenamed corpus program, compares each
// verdict with the expected file and every recorded variant with its
// base, and returns the base verdicts.
func checkBases(b *bench, c *corpus, rec *recorder) map[string]verdict {
	want, err := loadExpected()
	if err != nil {
		rec.problem("%v", err)
		return nil
	}
	got := map[string]verdict{}
	for _, t := range c.tmpls {
		req := request{Base: t.baseName, Source: t.render("", nil), Roots: t.roots}
		rep, err := b.analyze(req.body(), 0)
		if err != nil || rep.status != 200 {
			rec.problem("base %s: status %d, err %v", t.baseName, rep.status, err)
			continue
		}
		v, err := parseVerdict(rep.body)
		if err != nil {
			rec.problem("base %s: %v", t.baseName, err)
			continue
		}
		got[t.baseName] = v
		w, ok := want[t.baseName]
		if !ok {
			rec.problem("base %s: missing from expected_corpus.json", t.baseName)
			continue
		}
		if (expectedVerdict{v.Shape, v.ExitShape, v.Diags, v.ParStmts}) != w {
			rec.problem("base %s: verdict %+v, expected %+v", t.baseName, v, w)
		}
	}
	if len(want) != len(c.tmpls) {
		rec.problem("expected_corpus.json has %d programs, the corpus %d", len(want), len(c.tmpls))
	}
	mismatched := map[string]int{}
	for _, vr := range rec.variants {
		if base, ok := got[vr.base]; ok && base != vr.v {
			mismatched[vr.base]++
		}
	}
	for base, n := range mismatched {
		rec.problem("%d alpha-renamed variants of %s render a different verdict than the base", n, base)
	}
	return got
}

// setupFor binds a program's environment roots the way the corpus tests
// do: a list for listinc, a balanced tree otherwise.
func setupFor(e progs.Entry, roots []string, depth int) silrt.Setup {
	if !e.NeedsTree {
		return nil
	}
	return func(h *heap.Heap, env map[string]interp.Value) {
		for _, r := range roots {
			if e.Name == "listinc" {
				env[r] = interp.HandleV(h.BuildList(1 << depth))
			} else {
				env[r] = interp.HandleV(h.BuildBalanced(depth, 1))
			}
		}
	}
}

// parallelize runs the direct pipeline on one program with a private
// Space.
func parallelize(req request) (*analysis.Info, *par.Result, error) {
	prog, err := progs.Compile(req.Source)
	if err != nil {
		return nil, nil, err
	}
	roots := append([]string(nil), req.Roots...)
	sort.Strings(roots)
	info, err := analysis.Analyze(context.Background(), prog, analysis.Options{
		Space:         matrix.NewSpace(path.NewSpace()),
		ExternalRoots: roots,
	})
	if err != nil {
		return nil, nil, err
	}
	return info, par.Parallelize(info, par.DefaultOptions), nil
}

// equivalenceSample is how many generated programs of a window are
// checked against the interpreter besides the corpus bases.
const equivalenceSample = 6

// checkEquivalence runs every corpus base and a seeded sample of the
// window's generated programs sequentially and in parallel under the
// interpreter: same final state, zero dynamic races. A generated program
// whose sequential run exceeds the step limit (a random cyclic structure)
// is skipped, as in the runtime package's property test.
func checkEquivalence(c *corpus, rec *recorder, seed int64) (checked, skipped int) {
	reqs := make([]request, 0, len(c.tmpls)+equivalenceSample)
	for _, t := range c.tmpls {
		reqs = append(reqs, request{Base: t.baseName, Source: t.render("", nil), Roots: t.roots})
	}
	rng := rand.New(rand.NewSource(seed ^ 0xe9))
	for _, i := range rng.Perm(len(rec.replay)) {
		if len(reqs) == len(c.tmpls)+equivalenceSample {
			break
		}
		reqs = append(reqs, rec.replay[i])
	}
	for k, req := range reqs {
		info, res, err := parallelize(req)
		if err != nil {
			rec.problem("equivalence %s: %v", req.Base, err)
			continue
		}
		rep, err := silrt.CheckEquivalence(info.Prog, res.Prog, interp.Config{MaxSteps: 500_000},
			setupFor(c.entry[req.Base], req.Roots, 6))
		if err != nil {
			if k >= len(c.tmpls) {
				skipped++
				continue
			}
			rec.problem("equivalence %s: %v", req.Base, err)
			continue
		}
		if err := rep.Err(); err != nil {
			rec.problem("equivalence %s: %v", req.Base, err)
			continue
		}
		checked++
	}
	return checked, skipped
}

// speedup4 is the geometric mean over the given corpus bases of the
// simulated 4-processor speedup of the parallelized program.
func speedup4(c *corpus, bases []string, rec *recorder) float64 {
	logSum, n := 0.0, 0
	for _, name := range bases {
		t := c.byName[name]
		_, res, err := parallelize(request{Base: name, Source: t.render("", nil), Roots: t.roots})
		if err != nil {
			rec.problem("speedup %s: %v", name, err)
			continue
		}
		sp, err := silrt.MeasureSpeedup(res.Prog, interp.Config{}, setupFor(c.entry[name], t.roots, 10), []int{4})
		if err != nil || sp.SpeedupAt(0) <= 0 {
			rec.problem("speedup %s: %v", name, err)
			continue
		}
		logSum += math.Log(sp.SpeedupAt(0))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
