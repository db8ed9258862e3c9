package path

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestMayOverlapBasics(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"S", "S", true},
		{"S", "L1", false},
		{"L1", "L1", true},
		{"L1", "R1", false},
		{"L1", "D1", true},
		{"L2", "L+", true},
		{"L1", "L2+", false},
		{"L+", "R+", false},
		{"D+", "R1", true},
		{"D+", "S", false},
		{"L1R1", "D2", true},
		{"L1R1", "L1L1", false},
		{"L1R1", "L+", false},
		{"L+R1", "D+", true},
		{"L1D+", "L1R1", true},
		{"L1D+", "R1D+", false},
		{"L2+", "L3", true},
		{"L2+", "L1", false},
	}
	for _, c := range cases {
		if got := MayOverlap(MustParse(c.p), MustParse(c.q)); got != c.want {
			t.Errorf("MayOverlap(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestMayOverlapSymmetric(t *testing.T) {
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		return MayOverlap(p, q) == MayOverlap(q, p)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMayStrictPrefixBasics(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"S", "L1", true},
		{"S", "S", false},
		{"L1", "L1", false},
		{"L1", "L2", true},
		{"L1", "L+", true},
		{"L+", "L1", false}, // every word of L+ has length >= 1; prefix must be strict
		{"L+", "L2", true},  // L1 is a strict prefix of L2
		{"L1", "R2", false},
		{"L1", "L1R1", true},
		{"D+", "R1D+", true},
		{"R1", "L1D+", false},
		{"L1R1", "L1R1D+", true},
	}
	for _, c := range cases {
		if got := MayStrictPrefix(MustParse(c.p), MustParse(c.q)); got != c.want {
			t.Errorf("MayStrictPrefix(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestMayRouteThrough(t *testing.T) {
	// The kill-test of a.f := b is MayDescend(pa·f, pxy). A path x→y =
	// L1R1D+ may route through the R edge out of the node at x·L1, but not
	// through the L edge out of that node.
	pxy := MustParse("L1R1D+")
	pa := MustParse("L1")
	if !MayDescend(pa.Extend(RightD), pxy) {
		t.Error("L1R1D+ should route through R edge after L1")
	}
	if MayDescend(pa.Extend(LeftD), pxy) {
		t.Error("L1R1D+ cannot route through L edge after L1")
	}
	// Routing through the very last edge (overlap case).
	if !MayDescend(MustParse("L1").Extend(RightD), MustParse("L1R1")) {
		t.Error("the final edge counts as routed-through")
	}
	// S as pa: route through the first edge.
	if !MayDescend(Same().Extend(LeftD), MustParse("L1D+")) {
		t.Error("route through first edge from the node itself")
	}
	if MayDescend(Same().Extend(LeftD), MustParse("R1")) {
		t.Error("R1 does not start with an L edge")
	}
}

// ---------- property tests against brute-force enumeration ----------

// concretePathGen is a quick-generatable recipe for a small path expression.
type concretePathGen struct {
	Seed int64
}

func (g concretePathGen) path() Path {
	rng := rand.New(rand.NewSource(g.Seed))
	n := rng.Intn(4)
	segs := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		d := Dir(rng.Intn(3))
		if rng.Intn(2) == 0 {
			segs = append(segs, Exact(d, 1+rng.Intn(3)))
		} else {
			segs = append(segs, AtLeast(d, 1+rng.Intn(2)))
		}
	}
	p := New(segs...)
	if rng.Intn(2) == 0 {
		p = p.AsPossible()
	}
	return p
}

// quickCfg sizes the randomized property suites. The scheduled CI
// soundness job raises the budget via SIL_QUICK_SCALE (a multiplier on the
// default count); local and per-PR runs keep the fast default.
func quickCfg() *quick.Config { return &quick.Config{MaxCount: 300 * quickScale()} }

func quickScale() int {
	if v, err := strconv.Atoi(os.Getenv("SIL_QUICK_SCALE")); err == nil && v > 0 {
		return v
	}
	return 1
}

// words enumerates every word of the path language up to maxLen letters
// over {l, r} ('l' and 'r' runes), treating D as either letter.
func words(p Path, maxLen int) map[string]bool {
	out := map[string]bool{}
	var rec func(segIdx int, prefix string)
	rec = func(segIdx int, prefix string) {
		if segIdx == len(p.segs()) {
			out[prefix] = true
			return
		}
		s := p.segs()[segIdx]
		var letters []string
		switch s.Dir {
		case LeftD:
			letters = []string{"l"}
		case RightD:
			letters = []string{"r"}
		default:
			letters = []string{"l", "r"}
		}
		hi := s.Min
		if s.Inf {
			hi = maxLen - len(prefix) // enumerate as far as the budget allows
		}
		var grow func(count int, cur string)
		grow = func(count int, cur string) {
			if len(cur) > maxLen {
				return
			}
			if count >= s.Min {
				rec(segIdx+1, cur)
			}
			if count >= hi {
				return
			}
			for _, l := range letters {
				grow(count+1, cur+l)
			}
		}
		grow(0, prefix)
	}
	rec(0, "")
	// Drop words that exceeded the budget inside recursion.
	for w := range out {
		if len(w) > maxLen {
			delete(out, w)
		}
	}
	return out
}

// TestMayOverlapMatchesEnumeration cross-checks the NFA product against
// brute-force word enumeration on random small paths.
func TestMayOverlapMatchesEnumeration(t *testing.T) {
	const maxLen = 7
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		wp, wq := words(p, maxLen), words(q, maxLen)
		brute := false
		for w := range wp {
			if wq[w] {
				brute = true
				break
			}
		}
		got := MayOverlap(p, q)
		if brute && !got {
			t.Logf("enumeration finds overlap NFA misses: %s vs %s", p, q)
			return false
		}
		// got && !brute can legitimately happen when the only common words
		// are longer than maxLen; verify with a larger budget before failing.
		if got && !brute {
			wp2, wq2 := words(p, maxLen+6), words(q, maxLen+6)
			for w := range wp2 {
				if wq2[w] {
					return true
				}
			}
			t.Logf("NFA claims overlap enumeration refutes: %s vs %s", p, q)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestMayStrictPrefixMatchesEnumeration does the same for the prefix test.
func TestMayStrictPrefixMatchesEnumeration(t *testing.T) {
	const maxLen = 7
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		wp, wq := words(p, maxLen), words(q, maxLen)
		brute := false
	outer:
		for wa := range wp {
			for wb := range wq {
				if len(wa) < len(wb) && strings.HasPrefix(wb, wa) {
					brute = true
					break outer
				}
			}
		}
		got := MayStrictPrefix(p, q)
		if brute && !got {
			t.Logf("enumeration finds prefix NFA misses: %s vs %s", p, q)
			return false
		}
		if got && !brute {
			wp2, wq2 := words(p, maxLen+6), words(q, maxLen+6)
			for wa := range wp2 {
				for wb := range wq2 {
					if len(wa) < len(wb) && strings.HasPrefix(wb, wa) {
						return true
					}
				}
			}
			t.Logf("NFA claims prefix enumeration refutes: %s vs %s", p, q)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestResidueSoundVsEnumeration: for every word w = f·w' in L(p), the word
// w' must be covered by some residue path. This is the soundness condition
// the transfer function for a := b.f relies on.
func TestResidueSoundVsEnumeration(t *testing.T) {
	const maxLen = 6
	letters := map[Dir]string{LeftD: "l", RightD: "r"}
	f := func(a concretePathGen, fLeft bool) bool {
		p := a.path()
		dir := LeftD
		if !fLeft {
			dir = RightD
		}
		res := p.Residue(dir)
		covered := map[string]bool{}
		for _, r := range res {
			for w := range words(r, maxLen) {
				covered[w] = true
			}
		}
		for w := range words(p, maxLen) {
			if len(w) == 0 || string(w[0]) != letters[dir] {
				continue
			}
			if !covered[w[1:]] {
				t.Logf("residue(%s, %s) misses suffix %q of word %q (got %v)", p, dir, w[1:], w, res)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestExtendSoundVsEnumeration: L(p)·f ⊆ L(p.Extend(f)).
func TestExtendSoundVsEnumeration(t *testing.T) {
	const maxLen = 6
	letters := map[Dir]string{LeftD: "l", RightD: "r"}
	f := func(a concretePathGen, fLeft bool) bool {
		p := a.path()
		dir := LeftD
		if !fLeft {
			dir = RightD
		}
		ext := words(p.Extend(dir), maxLen+1)
		for w := range words(p, maxLen) {
			if !ext[w+letters[dir]] {
				t.Logf("extend(%s, %s) misses %q", p, dir, w+letters[dir])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
