package path

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetAddDefiniteWins(t *testing.T) {
	s := NewSet(MustParse("L1?"), MustParse("L1"))
	if got := s.String(); got != "L1" {
		t.Errorf("definite should absorb possible duplicate: %q", got)
	}
	s2 := NewSet(MustParse("L1"), MustParse("L1?"))
	if !s.Equal(s2) {
		t.Error("Add order should not matter")
	}
}

func TestSetStringAndParse(t *testing.T) {
	s := NewSet(MustParse("R1D+?"), MustParse("S"), MustParse("L+"))
	// Canonical order: S first (empty segs), then L before R.
	if got := s.String(); got != "S, L+, R1D+?" {
		t.Errorf("String = %q", got)
	}
	back := MustParseSet(s.String())
	if !back.Equal(s) {
		t.Errorf("ParseSet round trip: %q -> %q", s, back)
	}
	if !MustParseSet("{}").IsEmpty() {
		t.Error("{} should parse empty")
	}
	if !MustParseSet("").IsEmpty() {
		t.Error("empty string should parse empty")
	}
	if _, err := ParseSet("L1, X"); err == nil {
		t.Error("bad member should fail")
	}
}

// TestSetCanonicalOrderInvariant pins the invariant Add relies on when it
// upgrades a possible member to definite in place without re-sorting:
// members stay strictly sorted by Compare and unique by expression, which
// holds because Compare is definiteness-blind between distinct expressions
// (the flag is consulted only to order equal expressions). The maintained
// fingerprint must also always match a from-scratch recomputation.
func TestSetCanonicalOrderInvariant(t *testing.T) {
	canonical := func(s Set) error {
		for i := 1; i < s.Len(); i++ {
			if c := s.ps[i-1].Compare(s.ps[i]); c >= 0 {
				return fmt.Errorf("members %s, %s out of order (Compare=%d)", s.ps[i-1], s.ps[i], c)
			}
			if s.ps[i-1].EqualExpr(s.ps[i]) {
				return fmt.Errorf("duplicate expression %s", s.ps[i].ExprString())
			}
		}
		if got := mkSet(append([]Path(nil), s.ps...)).fp; got != s.fp {
			return fmt.Errorf("incremental fingerprint diverged from recomputation")
		}
		return nil
	}
	f := func(gens [6]concretePathGen, flips [6]bool) bool {
		var s Set
		for i, g := range gens {
			p := g.path()
			// Exercise both flag spellings of the same expression so the
			// in-place possible→definite upgrade path runs often.
			if flips[i] {
				s = s.Add(p.AsPossible())
				s = s.Add(p.AsDefinite())
			} else {
				s = s.Add(p)
			}
			if err := canonical(s); err != nil {
				t.Logf("after Add(%s): %v (set %s)", p, err, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestSetAddUpgradeInPlace: upgrading a possible member to definite keeps
// the member at its canonical position among unrelated expressions.
func TestSetAddUpgradeInPlace(t *testing.T) {
	s := MustParseSet("L1, L2?, R1")
	s = s.Add(MustParse("L2"))
	if got := s.String(); got != "L1, L2, R1" {
		t.Errorf("upgrade = %q, want L1, L2, R1", got)
	}
	if !s.Equal(MustParseSet("L1, L2, R1")) {
		t.Error("upgraded set must equal the directly built set")
	}
	// Fingerprints agree with the directly built spelling too.
	if s.Fingerprint() != MustParseSet("L1, L2, R1").Fingerprint() {
		t.Error("fingerprint must not depend on construction order")
	}
}

func TestMergeJoinSemantics(t *testing.T) {
	// Definite on both sides stays definite.
	a := MustParseSet("L1")
	b := MustParseSet("L1")
	if got := a.MergeJoin(b).String(); got != "L1" {
		t.Errorf("def/def = %q", got)
	}
	// Definite on one side only becomes possible.
	c := MustParseSet("L1, R1")
	d := MustParseSet("L1")
	if got := c.MergeJoin(d).String(); got != "L1, R1?" {
		t.Errorf("one-sided = %q", got)
	}
	// Possible on either side stays possible.
	e := MustParseSet("L1?").MergeJoin(MustParseSet("L1"))
	if got := e.String(); got != "L1?" {
		t.Errorf("poss/def = %q", got)
	}
	// Empty vs nonempty: everything possible.
	f := MustParseSet("S, D+").MergeJoin(EmptySet())
	if got := f.String(); got != "S?, D+?" {
		t.Errorf("vs empty = %q", got)
	}
}

func TestMergeJoinLattice(t *testing.T) {
	// MergeJoin must be commutative, idempotent and associative — the
	// properties the Figure 3 iteration relies on for convergence.
	gen := func(g concretePathGen) Set {
		p := g.path()
		q := concretePathGen{Seed: g.Seed * 7}.path()
		return NewSet(p, q)
	}
	comm := func(a, b concretePathGen) bool {
		x, y := gen(a), gen(b)
		return x.MergeJoin(y).Equal(y.MergeJoin(x))
	}
	if err := quick.Check(comm, quickCfg()); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	idem := func(a concretePathGen) bool {
		x := gen(a)
		return x.MergeJoin(x).Equal(x)
	}
	if err := quick.Check(idem, quickCfg()); err != nil {
		t.Errorf("idempotence: %v", err)
	}
	assoc := func(a, b, c concretePathGen) bool {
		x, y, z := gen(a), gen(b), gen(c)
		return x.MergeJoin(y).MergeJoin(z).Equal(x.MergeJoin(y.MergeJoin(z)))
	}
	if err := quick.Check(assoc, quickCfg()); err != nil {
		t.Errorf("associativity: %v", err)
	}
}

func TestUnionKeepsStrongest(t *testing.T) {
	a := MustParseSet("L1?, R1")
	b := MustParseSet("L1, D+?")
	got := a.Union(b).String()
	if got != "L1, R1, D+?" {
		t.Errorf("Union = %q", got)
	}
}

func TestExtendAllResidueAll(t *testing.T) {
	s := MustParseSet("S, L1")
	if got := s.ExtendAll(RightD).String(); got != "L1R1, R1" {
		t.Errorf("ExtendAll = %q", got)
	}
	r := MustParseSet("L+, R1").ResidueAll(LeftD)
	if got := r.String(); got != "S?, L+?" {
		t.Errorf("ResidueAll = %q", got)
	}
}

func TestConcatAll(t *testing.T) {
	s := MustParseSet("L1").ConcatAll(MustParseSet("S, R1?"))
	if got := s.String(); got != "L1, L1R1?" {
		t.Errorf("ConcatAll = %q", got)
	}
	if !EmptySet().ConcatAll(MustParseSet("L1")).IsEmpty() {
		t.Error("empty·x should be empty")
	}
}

func TestWidenExactToPlus(t *testing.T) {
	lim := Limits{MaxExact: 3, MaxSegs: 6, MaxPaths: 8}
	s := NewSet(MustParse("L5"))
	if got := s.Widen(lim).String(); got != "L3+" {
		t.Errorf("Widen exact = %q, want L3+", got)
	}
}

func TestWidenSegCollapse(t *testing.T) {
	lim := Limits{MaxExact: 8, MaxSegs: 3, MaxPaths: 8}
	s := NewSet(MustParse("L1R1L1R1L1"))
	got := s.Widen(lim).String()
	if got != "L1R1D3+" {
		t.Errorf("Widen segs = %q, want L1R1D3+", got)
	}
}

func TestWidenSetCollapse(t *testing.T) {
	lim := Limits{MaxExact: 8, MaxSegs: 6, MaxPaths: 2}
	s := MustParseSet("S, L1, L2, R1")
	got := s.Widen(lim).String()
	if got != "S, D+?" {
		t.Errorf("Widen set = %q, want S, D+?", got)
	}
	// Minimum length of collapsed members is preserved when > 1.
	s2 := MustParseSet("L2, R3, L1R2")
	got2 := s2.Widen(lim).String()
	if got2 != "D2+?" {
		t.Errorf("Widen set min = %q, want D2+?", got2)
	}
}

// TestWidenSound: widening only grows the language (checked by word
// enumeration), so it is always a safe over-approximation.
func TestWidenSound(t *testing.T) {
	lim := Limits{MaxExact: 2, MaxSegs: 2, MaxPaths: 2}
	const maxLen = 6
	f := func(a, b concretePathGen) bool {
		s := NewSet(a.path(), b.path())
		w := s.Widen(lim)
		have := map[string]bool{}
		for _, p := range w.Paths() {
			for word := range words(p, maxLen) {
				have[word] = true
			}
		}
		for _, p := range s.Paths() {
			for word := range words(p, maxLen) {
				if !have[word] {
					t.Logf("widen(%s) lost word %q of %s", s, word, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestHasSameHelpers(t *testing.T) {
	s := MustParseSet("S?, L1")
	if !s.HasSame() || s.HasDefiniteSame() {
		t.Error("S? is same but not definite-same")
	}
	d := MustParseSet("S")
	if !d.HasDefiniteSame() {
		t.Error("S is definite-same")
	}
	if MustParseSet("L1").HasSame() {
		t.Error("L1 is not same")
	}
	if !MustParseSet("L1, R1?").HasDefinite() {
		t.Error("L1 is definite")
	}
	if MustParseSet("L1?").HasDefinite() {
		t.Error("L1? is not definite")
	}
}

func TestDemoteFilterAllPossible(t *testing.T) {
	s := MustParseSet("S, L1, R1")
	d := s.Demote(func(p Path) bool { return !p.IsSame() })
	if got := d.String(); got != "S, L1?, R1?" {
		t.Errorf("Demote = %q", got)
	}
	f := s.Filter(func(p Path) bool { return p.IsSame() })
	if got := f.String(); got != "S" {
		t.Errorf("Filter = %q", got)
	}
	if got := s.AllPossible().String(); got != "S?, L1?, R1?" {
		t.Errorf("AllPossible = %q", got)
	}
}

func TestMayOverlapSet(t *testing.T) {
	a := MustParseSet("L1, L2")
	b := MustParseSet("R1, L+")
	if !MayOverlapSet(a, b) {
		t.Error("L1 overlaps L+")
	}
	c := MustParseSet("R1")
	if MayOverlapSet(a, c) {
		t.Error("L paths cannot overlap R1")
	}
	if MayOverlapSet(EmptySet(), a) {
		t.Error("empty set overlaps nothing")
	}
}

// ---------- reference model: the fold-Add construction ----------

// The set operations build their results with one sort (canonSet) or one
// merge of sorted inputs. The reference implementations below are the
// construction they replaced — fold every member in with an Add that
// copies, appends and re-sorts — kept to pin that the results are
// identical: same members in the same order, same flags, same fingerprint.

func refAdd(s Set, p Path) Set {
	for i, q := range s.ps {
		if q.EqualExpr(p) {
			if q.possible && !p.possible {
				out := append([]Path(nil), s.ps...)
				out[i] = p
				fp := s.fp
				of, nf := pathFP(q), pathFP(p)
				fp[0] += nf[0] - of[0]
				fp[1] += nf[1] - of[1]
				return Set{ps: out, fp: fp}
			}
			return s
		}
	}
	out := append([]Path(nil), s.ps...)
	out = append(out, p)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	f := pathFP(p)
	return Set{ps: out, fp: [2]uint64{s.fp[0] + f[0], s.fp[1] + f[1]}}
}

func refNewSet(paths ...Path) Set {
	var s Set
	for _, p := range paths {
		s = refAdd(s, p)
	}
	return s
}

func refFind(s Set, p Path) (Path, bool) {
	for _, q := range s.ps {
		if q.EqualExpr(p) {
			return q, true
		}
	}
	return Path{}, false
}

func refMergeJoin(s, t Set) Set {
	var out Set
	for _, p := range s.ps {
		if q, ok := refFind(t, p); ok && p.Definite() && q.Definite() {
			out = refAdd(out, p)
		} else {
			out = refAdd(out, p.AsPossible())
		}
	}
	for _, q := range t.ps {
		if _, ok := refFind(s, q); !ok {
			out = refAdd(out, q.AsPossible())
		}
	}
	return out
}

func refMap(s Set, f func(Path) []Path) Set {
	var out Set
	for _, p := range s.ps {
		for _, r := range f(p) {
			out = refAdd(out, r)
		}
	}
	return out
}

// refWidenPath always rebuilds the path, as widenPath did before it
// learned to return an in-bounds path unchanged.
func refWidenPath(p Path, lim Limits) Path {
	segs := append([]Seg(nil), p.segs()...)
	for i, s := range segs {
		if !s.Inf && s.Min > lim.MaxExact {
			segs[i] = Seg{Dir: s.Dir, Min: lim.MaxExact, Inf: true}
		}
	}
	if len(segs) > lim.MaxSegs {
		keep := lim.MaxSegs - 1
		min := 0
		for _, s := range segs[keep:] {
			min += s.Min
		}
		segs = append(segs[:keep:keep], Seg{Dir: DownD, Min: min, Inf: true})
	}
	return newPathIn(spaceOf(procSpace, p), segs, p.possible)
}

func refDropSubsumed(s Set) Set {
	var out Set
	for i, q := range s.ps {
		covered := false
		for j, p := range s.ps {
			if q.Possible() && i != j && !q.EqualExpr(p) && Subsumes(p, q) {
				covered = true
			}
		}
		if !covered {
			out = refAdd(out, q)
		}
	}
	return out
}

func refCollapseBySignature(s Set) Set {
	groups := map[string][]Path{}
	var order []string
	for _, p := range s.ps {
		sig := ""
		for _, seg := range p.segs() {
			sig += seg.Dir.String()
		}
		if _, ok := groups[sig]; !ok {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], p)
	}
	var out Set
	for _, sig := range order {
		g := groups[sig]
		segs := append([]Seg(nil), g[0].segs()...)
		definite := g[0].Definite()
		for _, p := range g[1:] {
			definite = definite && p.Definite()
			for i := range segs {
				o := p.segs()[i]
				if o.Min < segs[i].Min {
					segs[i] = Seg{Dir: segs[i].Dir, Min: o.Min, Inf: true}
				} else if o.Min > segs[i].Min || o.Inf {
					segs[i] = Seg{Dir: segs[i].Dir, Min: segs[i].Min, Inf: true}
				}
			}
		}
		if len(g) == 1 {
			out = refAdd(out, g[0])
		} else {
			out = refAdd(out, newPathIn(spaceOf(procSpace, g[0]), segs, !definite))
		}
	}
	return out
}

func refWiden(s Set, lim Limits) Set {
	out := refDropSubsumed(refMap(s, func(p Path) []Path { return []Path{refWidenPath(p, lim)} }))
	if out.Len() <= lim.MaxPaths {
		return out
	}
	out = refDropSubsumed(refCollapseBySignature(out))
	if out.Len() <= lim.MaxPaths {
		return out
	}
	var collapsed Set
	min, hadSame, samePossible := -1, false, true
	var own *Space
	for _, p := range out.ps {
		if p.IsSame() {
			hadSame = true
			samePossible = samePossible && p.Possible()
			continue
		}
		if own == nil {
			own = p.node.sp
		}
		if m := p.MinLen(); min < 0 || m < min {
			min = m
		}
	}
	if hadSame {
		if samePossible {
			collapsed = refAdd(collapsed, SamePossible())
		} else {
			collapsed = refAdd(collapsed, Same())
		}
	}
	if min >= 0 {
		collapsed = refAdd(collapsed, newPathIn(own, []Seg{AtLeast(DownD, max(min, 1))}, true))
	}
	return collapsed
}

// randomPaths draws a list of up to 10 paths from a pool of 5 expressions
// plus S, with random definiteness, so duplicates and both flag spellings
// of one expression are common.
func randomPaths(rng *rand.Rand) []Path {
	pool := []Path{Same()}
	for range 5 {
		pool = append(pool, concretePathGen{Seed: rng.Int63()}.path())
	}
	out := make([]Path, rng.Intn(11))
	for i := range out {
		p := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			p = p.AsPossible()
		} else {
			p = p.AsDefinite()
		}
		out[i] = p
	}
	return out
}

// TestSetOpsMatchFoldReference: every set operation returns exactly the
// set the fold-Add construction built — members, order, flags and
// fingerprint.
func TestSetOpsMatchFoldReference(t *testing.T) {
	same := func(op string, got, want Set) error {
		if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
			return fmt.Errorf("%s = %s, reference %s", op, got, want)
		}
		if got.Fingerprint() != mkSet(append([]Path(nil), got.ps...)).fp {
			return fmt.Errorf("%s: fingerprint diverged from recomputation", op)
		}
		return nil
	}
	demote := func(p Path) bool { return p.MinLen()%2 == 0 }
	keep := func(p Path) bool { return p.NumSegs() != 1 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomPaths(rng), randomPaths(rng)
		s, u := NewSet(xs...), NewSet(ys...)
		checks := []struct {
			op        string
			got, want Set
		}{
			{"NewSet", s, refNewSet(xs...)},
			{"Add", addEach(s, ys), refNewSet(append(xs, ys...)...)},
			{"Union", s.Union(u), refNewSet(append(xs, ys...)...)},
			{"MergeJoin", s.MergeJoin(u), refMergeJoin(s, u)},
			{"MergeJoin self", s.MergeJoin(s), refMergeJoin(s, s)},
			{"Demote", s.Demote(demote), refMap(s, func(p Path) []Path {
				if demote(p) {
					p = p.AsPossible()
				}
				return []Path{p}
			})},
			{"Filter", s.Filter(keep), refMap(s, func(p Path) []Path {
				if keep(p) {
					return []Path{p}
				}
				return nil
			})},
			{"ExtendAll", s.ExtendAll(RightD), refMap(s, func(p Path) []Path { return []Path{p.Extend(RightD)} })},
			{"Space.ExtendAll", procSpace.ExtendAll(s, LeftD), refMap(s, func(p Path) []Path { return []Path{procSpace.Extend(p, LeftD)} })},
			{"ConcatAll", s.ConcatAll(u), refMap(s, func(p Path) []Path {
				var out []Path
				for _, q := range u.ps {
					out = append(out, p.Concat(q))
				}
				return out
			})},
			{"ResidueAll", s.ResidueAll(LeftD), refMap(s, func(p Path) []Path { return p.Residue(LeftD) })},
			{"Widen default", s.Widen(DefaultLimits), refWiden(s, DefaultLimits)},
			{"Widen tight", s.Widen(Limits{MaxExact: 2, MaxSegs: 2, MaxPaths: 2}), refWiden(s, Limits{MaxExact: 2, MaxSegs: 2, MaxPaths: 2})},
			{"Widen signature", s.Widen(Limits{MaxExact: 8, MaxSegs: 6, MaxPaths: 3}), refWiden(s, Limits{MaxExact: 8, MaxSegs: 6, MaxPaths: 3})},
		}
		for _, c := range checks {
			if err := same(c.op, c.got, c.want); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func addEach(s Set, ps []Path) Set {
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

var setSink Set

// TestSetAllocs pins the allocation cost of the hot set operations, so a
// refactor cannot quietly bring back the per-member copy.
func TestSetAllocs(t *testing.T) {
	s := MustParseSet("S, L1, R1D+?, D2+?")
	p := MustParse("L1R1")
	if n := testing.AllocsPerRun(100, func() { setSink = s.Add(p) }); n != 1 {
		t.Errorf("Set.Add of a new member: %v allocs, want 1", n)
	}
	up, l1 := MustParseSet("L1?, R1"), MustParse("L1")
	if n := testing.AllocsPerRun(100, func() { setSink = up.Add(l1) }); n != 1 {
		t.Errorf("Set.Add upgrading a member: %v allocs, want 1", n)
	}
	w := MustParseSet("L9, R1D+?").Widen(DefaultLimits)
	if n := testing.AllocsPerRun(100, func() { setSink = w.Widen(DefaultLimits) }); n != 0 {
		t.Errorf("Set.Widen of a widened set: %v allocs, want 0", n)
	}
	if got := w.Widen(DefaultLimits); !got.Equal(w) {
		t.Errorf("re-widening changed %s to %s", w, got)
	}
}
