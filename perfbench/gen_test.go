package main

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/progs"
	"repro/internal/service"
	"repro/internal/sil/printer"
)

func mustCorpus(t *testing.T) *corpus {
	t.Helper()
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sequence returns the first n request bodies a workload sends in its
// first measured window, generated exactly as the drivers generate them.
func sequence(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	d, err := newDriver(name, mustCorpus(t), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	switch d := d.(type) {
	case *coldDriver:
		src := d.src("c0")
		for i := 0; i < n; i++ {
			_, body := src(i)
			out = append(out, body)
		}
	case *hotDriver:
		src := d.src(0)
		for i := 0; i < n; i++ {
			_, body := src(i)
			out = append(out, body)
		}
	case *editDriver:
		for i := 0; i < n; i++ {
			r, _ := d.es.next()
			out = append(out, r.body())
		}
	}
	return out
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := sequence(t, name, 7, 80), sequence(t, name, 7, 80), sequence(t, name, 8, 80)
		if !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
			t.Errorf("%s: the same seed gave different request sequences", name)
		}
		if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestTemplatesRenderTheirSource(t *testing.T) {
	for _, e := range progs.Catalog {
		tm, err := newTemplate(e.Name, e.Source, e.Roots)
		if err != nil {
			t.Fatal(err)
		}
		if got := tm.render("", nil); got != e.Source {
			t.Errorf("%s: untagged render differs from the corpus source", e.Name)
		}
	}
}

func compile(t *testing.T, req request) (string, map[string]string) {
	t.Helper()
	prog, err := progs.Compile(req.Source)
	if err != nil {
		t.Fatalf("%s: %v\n%s", req.Base, err, req.Source)
	}
	roots := append([]string(nil), req.Roots...)
	sort.Strings(roots)
	fp := service.ProgramFingerprint(printer.Print(prog), analysis.Options{ExternalRoots: roots})
	decls := map[string]string{}
	for _, d := range prog.Decls {
		decls[d.Name] = printer.PrintDecl(d)
	}
	return fp.String(), decls
}

// TestColdMixIsCold: over the warm-up stream and the start of two timed
// windows, every program has its own fingerprint and no procedure text
// repeats, so neither the result cache nor the summary store can hit.
func TestColdMixIsCold(t *testing.T) {
	d := &coldDriver{c: mustCorpus(t), seed: 11}
	fps := map[string]string{}
	texts := map[string]string{}
	for _, stream := range []string{"w", "c0", "c1"} {
		src := d.src(stream)
		for i := 0; i < 120; i++ {
			req, _ := src(i)
			fp, decls := compile(t, req)
			where := fmt.Sprintf("%s[%d] (%s)", stream, i, req.Base)
			if prev, dup := fps[fp]; dup {
				t.Fatalf("%s repeats the fingerprint of %s", where, prev)
			}
			fps[fp] = where
			for name, text := range decls {
				if prev, dup := texts[text]; dup {
					t.Fatalf("%s: procedure %s repeats a procedure text of %s", where, name, prev)
				}
				texts[text] = where
			}
		}
	}
}

// TestEditChangesExactlyOneProcedure: every non-resubmit step of the edit
// stream differs from the document's previous version in one procedure.
func TestEditChangesExactlyOneProcedure(t *testing.T) {
	es := newEditStream(mustCorpus(t), 3)
	last := map[string]map[string]string{}
	for _, r := range es.initial() {
		_, last[r.Base] = compile(t, r)
	}
	edits, resubmits, inMain := 0, 0, 0
	for i := 0; i < 400; i++ {
		r, resubmit := es.next()
		if resubmit {
			resubmits++
			continue
		}
		_, decls := compile(t, r)
		var changed []string
		for name, text := range decls {
			if last[r.Base][name] != text {
				changed = append(changed, name)
			}
		}
		if len(changed) != 1 {
			t.Fatalf("step %d (%s): %d procedures changed: %v", i, r.Base, len(changed), changed)
		}
		if changed[0] == "main" {
			inMain++
		}
		last[r.Base] = decls
		edits++
	}
	if resubmits == 0 || inMain == 0 || inMain == edits {
		t.Errorf("edits %d (main %d), resubmits %d: want both kinds of edit and some resubmits", edits, inMain, resubmits)
	}
}
