package analysis

// Pins for the barrier's canonical content key: canonicalKey must produce
// exactly the bytes of the fmt-built rendering it replaced (the barrier
// sorts staged entries by these bytes, and the sort order decides which
// contexts stay exact under the cap), at a fixed allocation cost.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/progs"
)

// canonicalKeyFmt is the fmt-built reference rendering of canonicalKey.
func canonicalKeyFmt(m *matrix.Matrix) string {
	hs := append([]matrix.Handle(nil), m.Handles()...)
	slices.Sort(hs)
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", m.StickyShape())
	for _, h := range hs {
		a := m.Attr(h)
		fmt.Fprintf(&b, "%s=%d,%d|", h, a.Nil, a.Indeg)
	}
	for _, r := range hs {
		for _, c := range hs {
			if e := m.Get(r, c); !e.IsEmpty() {
				fmt.Fprintf(&b, "%s>%s:%s|", r, c, e)
			}
		}
	}
	return b.String()
}

// contextMatrices analyzes src and returns the entry and exit matrix of
// every live context of every summary.
func contextMatrices(t *testing.T, src string, roots []string) []*matrix.Matrix {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: roots})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ms []*matrix.Matrix
	for _, name := range sortedSummaryNames(info) {
		for _, c := range info.Summaries[name].Contexts() {
			ms = append(ms, c.Entry())
			if c.Exit() != nil {
				ms = append(ms, c.Exit())
			}
		}
	}
	return ms
}

func TestCanonicalKeyMatchesFmtReference(t *testing.T) {
	check := func(name string, ms []*matrix.Matrix) {
		for i, m := range ms {
			if got, want := canonicalKey(m), canonicalKeyFmt(m); got != want {
				t.Errorf("%s matrix %d: key\n%q\nwant\n%q", name, i, got, want)
			}
		}
	}
	n := 0
	for _, e := range progs.Catalog {
		ms := contextMatrices(t, e.Source, e.Roots)
		check(e.Name, ms)
		n += len(ms)
	}
	for seed := int64(1); seed <= 100; seed++ {
		ms := contextMatrices(t, progs.RandomProgram(seed), nil)
		check(fmt.Sprintf("random-%d", seed), ms)
		n += len(ms)
	}
	if n == 0 {
		t.Fatal("no context matrices compared")
	}
	t.Logf("compared %d context entry/exit keys", n)
}

// TestCanonicalKeyAllocs pins the key's cost on every corpus context
// matrix: the sorted handle copy and the result string.
func TestCanonicalKeyAllocs(t *testing.T) {
	for _, e := range progs.Catalog {
		for i, m := range contextMatrices(t, e.Source, e.Roots) {
			if got := testing.AllocsPerRun(20, func() { _ = canonicalKey(m) }); got > 2 {
				t.Errorf("%s matrix %d: canonicalKey made %v allocations, want <= 2", e.Name, i, got)
			}
		}
	}
}
