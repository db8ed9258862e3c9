package path

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSubsumesBasics(t *testing.T) {
	cases := []struct {
		p, q string // does p subsume q (L(q) ⊆ L(p))?
		want bool
	}{
		{"L+", "L1", true},
		{"L+", "L3", true},
		{"L+", "L2+", true},
		{"L1", "L+", false},
		{"L+", "R1", false},
		{"D+", "L+", true},
		{"D+", "L1R1", true},
		{"L+", "D+", false},
		{"S", "S", true},
		{"D+", "S", false},
		{"L1R1", "L1R1", true},
		{"L1D+", "L1R2", true},
		{"L1D+", "L2", false}, // the second edge of L2 is left; wait: D covers left too
		{"D2+", "L1", false},  // too short
		{"D1", "L1", true},
		{"D1", "R1", true},
	}
	for _, c := range cases {
		got := Subsumes(MustParse(c.p), MustParse(c.q))
		if c.p == "L1D+" && c.q == "L2" {
			// L2 = ll; L1D+ = l(l|r)+ includes ll: subsumption holds.
			c.want = true
		}
		if got != c.want {
			t.Errorf("Subsumes(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// TestSubsumesMatchesEnumeration cross-checks against brute-force word
// enumeration (bounded; a missing long word cannot be caught, so only the
// "claims inclusion but enumeration refutes" direction is decisive).
func TestSubsumesMatchesEnumeration(t *testing.T) {
	const maxLen = 7
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		got := Subsumes(p, q)
		wp := words(p, maxLen)
		for w := range words(q, maxLen) {
			if !wp[w] {
				// Found a q-word outside p within the bound.
				if got {
					t.Logf("Subsumes(%s, %s) true but %q not in p", p, q, w)
					return false
				}
				return true
			}
		}
		// All bounded q-words inside p: got=false is still possible
		// (counterexample longer than the bound), so nothing to check.
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestDropSubsumed(t *testing.T) {
	s := MustParseSet("S?, L1?, L+?, L2+?")
	out := s.dropSubsumed()
	if got := out.String(); got != "S?, L+?" {
		t.Errorf("dropSubsumed = %q, want S?, L+?", got)
	}
	// Definite members are never dropped.
	d := MustParseSet("L1, L+?")
	if got := d.dropSubsumed().String(); got != "L1, L+?" {
		t.Errorf("definite dropped: %q", got)
	}
	// A definite wide member absorbs possible narrow ones.
	e := MustParseSet("L1?, L+")
	if got := e.dropSubsumed().String(); got != "L+" {
		t.Errorf("possible member should fold into definite cover: %q", got)
	}
}

func TestCollapseBySignature(t *testing.T) {
	s := MustParseSet("L1, L2, L3")
	out := s.collapseBySignature()
	if got := out.String(); got != "L+" {
		t.Errorf("collapse = %q, want L+ (all definite ⇒ definite)", got)
	}
	mixed := MustParseSet("L1R2, L2R1?")
	if got := mixed.collapseBySignature().String(); got != "L+R+?" {
		t.Errorf("collapse = %q, want L+R+?", got)
	}
	// Different signatures stay apart.
	apart := MustParseSet("L1, R1")
	if got := apart.collapseBySignature().String(); got != "L1, R1" {
		t.Errorf("collapse merged different signatures: %q", got)
	}
	// S keeps its own group.
	withS := MustParseSet("S, L1, L2")
	if got := withS.collapseBySignature().String(); got != "S, L+" {
		t.Errorf("collapse = %q", got)
	}
}

func TestIsExactEdge(t *testing.T) {
	if !MustParse("L1").IsExactEdge(LeftD) {
		t.Error("L1 is an exact left edge")
	}
	for _, bad := range []string{"L2", "L+", "R1", "L1R1", "S", "L1?"} {
		p := MustParse(bad)
		if bad == "L1?" {
			// The flag does not change the expression test.
			if !p.IsExactEdge(LeftD) {
				t.Error("L1? expression is still one left edge")
			}
			continue
		}
		if p.IsExactEdge(LeftD) {
			t.Errorf("%s should not be an exact left edge", bad)
		}
	}
}

// TestWidenConvergesUnderIteration simulates the Figure 3 engine loop:
// repeatedly extend-and-merge must reach a fixed point quickly.
func TestWidenConvergesUnderIteration(t *testing.T) {
	lim := DefaultLimits
	acc := NewSet(Same())
	for i := 0; i < 50; i++ {
		extended := acc.ExtendAll(LeftD).AllPossible()
		next := acc.MergeJoin(extended).Widen(lim)
		if next.Equal(acc) {
			if !strings.Contains(acc.String(), "L") {
				t.Errorf("fixpoint lost direction: %s", acc)
			}
			return
		}
		acc = next
	}
	t.Fatalf("no convergence within 50 iterations: %s", acc)
}

// canonicalNodes interns, into a fresh Space, every canonical path of at
// most maxSegs segments over L/R/D with Min in 1..maxMin and both Inf
// values, returning one definite Path per distinct node.
func canonicalNodes(maxSegs, maxMin int) []Path {
	sp := NewSpace()
	var all []Seg
	for _, d := range []Dir{LeftD, RightD, DownD} {
		for m := 1; m <= maxMin; m++ {
			all = append(all, Exact(d, m), AtLeast(d, m))
		}
	}
	seen := map[*pnode]bool{}
	var out []Path
	var grow func(prefix []Seg)
	grow = func(prefix []Seg) {
		if len(prefix) > 0 {
			if p := sp.New(prefix...); !seen[p.node] {
				seen[p.node] = true
				out = append(out, p)
			}
		}
		if len(prefix) == maxSegs {
			return
		}
		for _, s := range all {
			grow(append(prefix[:len(prefix):len(prefix)], s))
		}
	}
	grow(nil)
	return out
}

// TestShapeCheckSound pins Subsumes' shape check against the NFA decision:
// over every ordered pair of small canonical paths, a pair the check
// rejects is never in fact a subsumption. The sweep also checks that the
// spelling each node stores at intern time is the segment-by-segment
// Seg.String rendering. The pairs are split across GOMAXPROCS goroutines,
// since subsumesSlow dominates the run.
func TestShapeCheckSound(t *testing.T) {
	nodes := canonicalNodes(3, 2)
	for _, p := range nodes {
		var want strings.Builder
		for _, s := range p.Segs() {
			want.WriteString(s.String())
		}
		if got := p.String(); got != want.String() {
			t.Errorf("stored spelling %q, want %q", got, want.String())
		}
		if got := p.AsPossible().String(); got != want.String()+"?" {
			t.Errorf("stored possible spelling %q, want %q?", got, want.String())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(nodes); i += workers {
				p := nodes[i]
				for _, q := range nodes {
					if !shapeExcludes(p.node, q.node) {
						continue
					}
					rejected.Add(1)
					if subsumesSlow(p.node.segs, q.node.segs) {
						t.Errorf("shape check rejects Subsumes(%s, %s), but it holds", p, q)
					}
				}
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("shape check rejected no pair")
	}
	t.Logf("%d nodes, %d of %d ordered pairs rejected by shape", len(nodes), rejected.Load(), len(nodes)*len(nodes))
}

// TestShapeCheckClauses shows each clause of the shape check settling a
// pair that no other clause rejects.
func TestShapeCheckClauses(t *testing.T) {
	cases := []struct{ p, q, clause string }{
		{"L2+", "L1", "q has a shorter word"},
		{"L1", "L+", "p bounded, q unbounded"},
		{"L1", "L2", "p bounded, lengths differ"},
		{"L1D1", "R1D1", "first direction"},
		{"D1L1", "D1R1", "last direction"},
	}
	for _, c := range cases {
		p, q := MustParse(c.p), MustParse(c.q)
		if !shapeExcludes(p.node, q.node) {
			t.Errorf("%s: shape check does not reject Subsumes(%s, %s)", c.clause, c.p, c.q)
		}
		if Subsumes(p, q) {
			t.Errorf("Subsumes(%s, %s) = true", c.p, c.q)
		}
	}
}
