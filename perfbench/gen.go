package main

// Request generators. The server only ever sees the programs built here;
// every program is derived from the corpus (progs.Catalog) or from
// progs.RandomProgram by token-level rewriting, so the analysis work of a
// variant is the work of its base while its fingerprint is new.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/progs"
	"repro/internal/sil/lexer"
	"repro/internal/sil/token"
)

// slot is one rewritable token of a template: an identifier (renamed by a
// variant tag) or an integer literal (shifted by edits).
type slot struct {
	ident string // identifier spelling; "" for an integer slot
	lit   int    // index into the template's literal values (int slots)
	proc  string // enclosing procedure ("" for the program name)
}

// template is a SIL source split around its rewritable tokens:
// segs[0] slot[0] segs[1] ... slot[n-1] segs[n].
type template struct {
	segs     []string
	slots    []slot
	lits     []int64  // base literal values, by literal index
	litProc  []string // enclosing procedure of each literal
	procs    []string // procedure names in declaration order
	roots    []string // main locals bound by the environment (corpus Roots)
	baseName string
}

func newTemplate(name, src string, roots []string) (*template, error) {
	toks, errs := lexer.All(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("template %s: %v", name, errs[0])
	}
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	t := &template{roots: roots, baseName: name}
	prev, proc := 0, ""
	declNext := false
	for _, tk := range toks {
		switch tk.Kind {
		case token.PROCEDURE, token.FUNCTION:
			declNext = true
			continue
		case token.IDENT, token.INT:
		default:
			continue
		}
		off := lineStart[tk.Pos.Line-1] + tk.Pos.Col - 1
		if off < prev || off+len(tk.Lit) > len(src) || src[off:off+len(tk.Lit)] != tk.Lit {
			return nil, fmt.Errorf("template %s: token %s does not match its position %s", name, tk, tk.Pos)
		}
		if tk.Kind == token.IDENT && declNext {
			proc = tk.Lit
			t.procs = append(t.procs, proc)
			declNext = false
		}
		t.segs = append(t.segs, src[prev:off])
		prev = off + len(tk.Lit)
		if tk.Kind == token.INT {
			v, err := strconv.ParseInt(tk.Lit, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("template %s: %v", name, err)
			}
			t.slots = append(t.slots, slot{lit: len(t.lits), proc: proc})
			t.lits = append(t.lits, v)
			t.litProc = append(t.litProc, proc)
			continue
		}
		t.slots = append(t.slots, slot{ident: tk.Lit, proc: proc})
	}
	t.segs = append(t.segs, src[prev:])
	return t, nil
}

// rename maps an identifier to its spelling in the variant tagged tag.
// main is the analysis entry point and keeps its name; every other
// identifier (program, procedures, parameters, locals) gets the tag.
func rename(ident, tag string) string {
	if ident == "main" || tag == "" {
		return ident
	}
	return ident + "_" + tag
}

// render builds the source of the variant tagged tag with the given
// literal values (nil keeps the base values).
func (t *template) render(tag string, lits []int64) string {
	if lits == nil {
		lits = t.lits
	}
	var b strings.Builder
	for i, s := range t.slots {
		b.WriteString(t.segs[i])
		if s.ident != "" {
			b.WriteString(rename(s.ident, tag))
		} else {
			b.WriteString(strconv.FormatInt(lits[s.lit], 10))
		}
	}
	b.WriteString(t.segs[len(t.slots)])
	return b.String()
}

func (t *template) renamedRoots(tag string) []string {
	out := make([]string, len(t.roots))
	for i, r := range t.roots {
		out[i] = rename(r, tag)
	}
	return out
}

// request is one generated /v1/analyze call.
type request struct {
	Base   string // base program (corpus name, or "rnd" for generated)
	Source string
	Roots  []string
	// Variant reports that the program is an alpha-rename of a corpus
	// base, so its verdict fields must equal the base's.
	Variant bool
}

func (r request) body() []byte {
	data, err := json.Marshal(struct {
		Source string   `json:"source"`
		Roots  []string `json:"roots,omitempty"`
	}{r.Source, r.Roots})
	if err != nil {
		panic(err) // strings and string slices always marshal
	}
	return data
}

// corpus holds one template per corpus program, in catalog order.
type corpus struct {
	tmpls  []*template
	byName map[string]*template
	entry  map[string]progs.Entry
}

func loadCorpus() (*corpus, error) {
	c := &corpus{byName: map[string]*template{}, entry: map[string]progs.Entry{}}
	for _, e := range progs.Catalog {
		t, err := newTemplate(e.Name, e.Source, e.Roots)
		if err != nil {
			return nil, err
		}
		c.tmpls = append(c.tmpls, t)
		c.byName[e.Name] = t
		c.entry[e.Name] = e
	}
	return c, nil
}

// tagFor derives a variant tag that is unique per (seed, stream, i).
func tagFor(seed int64, stream string, i int) string {
	return fmt.Sprintf("%s%xk%x", stream, uint64(seed), i)
}

// coldMix is the never-seen stream: request 2j is an alpha-rename of
// corpus program j mod 12, request 2j+1 an alpha-rename of
// progs.RandomProgram(seed+j). Every identifier carries a tag unique to
// the request, so every program and every procedure text is new.
type coldMix struct {
	c    *corpus
	seed int64
	// stream separates warm-up requests from timed ones.
	stream string
}

func (g coldMix) at(i int) request {
	tag := tagFor(g.seed, g.stream, i)
	j := i / 2
	if i%2 == 0 {
		t := g.c.tmpls[j%len(g.c.tmpls)]
		return request{Base: t.baseName, Source: t.render(tag, nil), Roots: t.renamedRoots(tag), Variant: true}
	}
	t, err := newTemplate("rnd", progs.RandomProgram(g.seed+int64(j)), nil)
	if err != nil {
		panic(err) // RandomProgram emits lexically valid SIL
	}
	return request{Base: "rnd", Source: t.render(tag, nil)}
}

// hotRepeat draws Zipf(s) ranks over a population of alpha-renamed
// variants, larger than the server's result cache, of one program: the
// paper's Figure 7 program. With one base every miss costs the same
// analysis, so the latency tail is that analysis and not the share of the
// slowest corpus program among the few variants that miss.
type hotRepeat struct {
	pop  []request // by popularity rank
	cdf  []float64
	base string
}

const (
	hotBase     = "treeadd"
	hotVariants = 480 // more than the 256-entry default result cache
	hotZipfS    = 1.1
)

func newHotRepeat(c *corpus, seed int64) *hotRepeat {
	t := c.byName[hotBase]
	h := &hotRepeat{base: hotBase}
	sum := 0.0
	for r := 0; r < hotVariants; r++ {
		tag := tagFor(seed, "h", r)
		h.pop = append(h.pop, request{Base: t.baseName, Source: t.render(tag, nil), Roots: t.renamedRoots(tag), Variant: true})
		sum += 1 / math.Pow(float64(r+1), hotZipfS)
		h.cdf = append(h.cdf, sum)
	}
	for r := range h.cdf {
		h.cdf[r] /= sum
	}
	return h
}

// draw picks the population index of request i of a stream by
// popularity, as a pure function of (seed, i) so concurrent clients can
// draw without sharing a generator.
func (h *hotRepeat) draw(seed int64, i int) int {
	u := float64(mix64(uint64(seed)*0x9e3779b97f4a7c15^uint64(i))>>11) / (1 << 53)
	return min(sort.SearchFloat64s(h.cdf, u), len(h.cdf)-1)
}

// warmOrder lists the population indexes of the cacheable head, least
// popular first, so the most popular variants end up most recent.
func (h *hotRepeat) warmOrder(cache int) []int {
	out := make([]int, 0, cache)
	for r := min(cache, len(h.pop)) - 1; r >= 0; r-- {
		out = append(out, r)
	}
	return out
}

// editDoc is one document of the edit stream: a multi-procedure corpus
// program under a fixed tag, with its literal history.
type editDoc struct {
	t        *template
	tag      string
	leafLits []int // literal indexes inside non-main procedures
	mainLits []int
	versions [][]int64
}

func (d *editDoc) request(v int) request {
	return request{Base: d.t.baseName, Source: d.t.render(d.tag, d.versions[v]), Roots: d.t.renamedRoots(d.tag)}
}

// editStream models one editor session: it works on one document for a
// run of steps, visiting the documents in a seeded rotation so every run
// edits the same mix. Each step shifts one integer literal — in a
// non-main procedure half the time, in main the other half — and every
// editResubmitEvery-th step resubmits a recent earlier version instead.
type editStream struct {
	docs  []*editDoc
	order []int // document rotation
	rng   *rand.Rand
	step  int
}

const (
	editRunLength     = 8 // steps spent on one document before moving on
	editResubmitEvery = 4
	editRecent        = 4 // resubmits pick among this many latest versions
)

func newEditStream(c *corpus, seed int64) *editStream {
	e := &editStream{rng: rand.New(rand.NewSource(seed ^ 0xed17))}
	for _, t := range c.tmpls {
		if len(t.procs) < 2 {
			continue
		}
		d := &editDoc{t: t, tag: tagFor(seed, "e", len(e.docs))}
		for i, p := range t.litProc {
			if p == "main" {
				d.mainLits = append(d.mainLits, i)
			} else if p != "" {
				d.leafLits = append(d.leafLits, i)
			}
		}
		if len(d.leafLits)+len(d.mainLits) == 0 {
			continue // nothing to edit
		}
		d.versions = [][]int64{append([]int64(nil), t.lits...)}
		e.docs = append(e.docs, d)
	}
	e.order = e.rng.Perm(len(e.docs))
	return e
}

// initial returns every document's first version (the set-up submissions).
func (e *editStream) initial() []request {
	out := make([]request, len(e.docs))
	for i, d := range e.docs {
		out[i] = d.request(0)
	}
	return out
}

// next returns the next request and whether it resubmits an earlier
// version (an expected result-cache hit).
func (e *editStream) next() (request, bool) {
	d := e.docs[e.order[e.step/editRunLength%len(e.order)]]
	e.step++
	if e.step%editResubmitEvery == 0 && len(d.versions) > 1 {
		n := len(d.versions) - 1 // exclude the current version
		if n > editRecent {
			n = editRecent
		}
		return d.request(len(d.versions) - 2 - e.rng.Intn(n)), true
	}
	pool := d.mainLits
	if (e.rng.Intn(2) == 0 && len(d.leafLits) > 0) || len(d.mainLits) == 0 {
		pool = d.leafLits
	}
	lits := append([]int64(nil), d.versions[len(d.versions)-1]...)
	lits[pool[e.rng.Intn(len(pool))]] += 1 + int64(e.rng.Intn(3))
	d.versions = append(d.versions, lits)
	return d.request(len(d.versions) - 1), false
}
