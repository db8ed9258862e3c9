package matrix

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/path"
)

func nonNil() Attr { return Attr{Nil: NonNil, Indeg: UnknownDeg} }

func TestAddDiagonal(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	if got := m.Get("a", "a").String(); got != "S" {
		t.Errorf("diagonal = %q, want S", got)
	}
	m.Add("n", Attr{Nil: DefNil})
	if !m.Get("n", "n").IsEmpty() {
		t.Error("nil handle should have no diagonal")
	}
	if len(m.Handles()) != 2 {
		t.Errorf("handles = %v", m.Handles())
	}
}

func TestReAddUpdatesAttr(t *testing.T) {
	m := New()
	m.Add("a", Attr{Nil: MaybeNil})
	m.Add("a", Attr{Nil: NonNil, Indeg: Root})
	if len(m.Handles()) != 1 {
		t.Error("re-add should not duplicate")
	}
	if m.Attr("a") != (Attr{Nil: NonNil, Indeg: Root}) {
		t.Errorf("attr = %+v", m.Attr("a"))
	}
}

func TestRemoveKillsRowAndColumn(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L1"))
	m.Remove("b")
	if m.Has("b") {
		t.Error("b should be gone")
	}
	if !m.Get("a", "b").IsEmpty() {
		t.Error("entry should be gone")
	}
	if got := len(m.Handles()); got != 1 {
		t.Errorf("handles = %d", got)
	}
}

func TestPutEmptyDeletes(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L1"))
	m.Put("a", "b", path.EmptySet())
	if !m.Get("a", "b").IsEmpty() {
		t.Error("empty Put should delete")
	}
	// Put on unknown handles is a no-op.
	m.Put("zz", "a", path.MustParseSet("L1"))
	if !m.Get("zz", "a").IsEmpty() {
		t.Error("Put on unknown handle should be ignored")
	}
}

func TestRelatedAndMayAlias(t *testing.T) {
	m := New()
	for _, h := range []Handle{"a", "b", "c"} {
		m.Add(h, nonNil())
	}
	m.Put("a", "b", path.MustParseSet("L1"))
	if !m.Related("a", "b") || !m.Related("b", "a") {
		t.Error("a,b related both ways")
	}
	if m.Related("b", "c") {
		t.Error("b,c unrelated")
	}
	if m.MayAlias("a", "b") {
		t.Error("L1 is not an alias")
	}
	m.Put("a", "c", path.MustParseSet("S?"))
	if !m.MayAlias("a", "c") || !m.MayAlias("c", "a") {
		t.Error("S? should alias both ways")
	}
	if !m.MayAlias("a", "a") {
		t.Error("self-alias")
	}
}

func TestMergeDefiniteBothSides(t *testing.T) {
	a := New()
	a.Add("x", nonNil())
	a.Add("y", nonNil())
	a.Put("x", "y", path.MustParseSet("L1"))
	b := a.Copy()
	m := a.Merge(b)
	if got := m.Get("x", "y").String(); got != "L1" {
		t.Errorf("def/def merge = %q", got)
	}
	if got := m.Get("x", "x").String(); got != "S" {
		t.Errorf("diagonal after merge = %q", got)
	}
}

func TestMergeOneSided(t *testing.T) {
	a := New()
	a.Add("x", nonNil())
	a.Add("y", nonNil())
	a.Put("x", "y", path.MustParseSet("L1"))
	b := New()
	b.Add("x", nonNil())
	b.Add("y", nonNil())
	m := a.Merge(b)
	if got := m.Get("x", "y").String(); got != "L1?" {
		t.Errorf("one-sided merge = %q", got)
	}
	// Handle live on one side only: stays, nilness degrades to maybe.
	c := New()
	c.Add("x", nonNil())
	m2 := a.Merge(c)
	if !m2.Has("y") {
		t.Error("y should survive merge")
	}
	if m2.Attr("y").Nil != MaybeNil {
		t.Errorf("y nilness = %v, want maybe", m2.Attr("y").Nil)
	}
}

func TestMergeShapeTakesWorst(t *testing.T) {
	a := New()
	b := New()
	b.SetShape(ShapeMaybeDAG)
	if got := a.Merge(b).Shape(); got != ShapeMaybeDAG {
		t.Errorf("shape = %v", got)
	}
	b.SetShape(ShapeCyclic)
	if got := b.Shape(); got != ShapeCyclic {
		t.Errorf("SetShape should degrade: %v", got)
	}
	b.SetShape(ShapeTree) // cannot improve
	if got := b.Shape(); got != ShapeCyclic {
		t.Errorf("SetShape must not improve: %v", got)
	}
	b.ResetShape(ShapeTree)
	if got := b.Shape(); got != ShapeTree {
		t.Errorf("ResetShape: %v", got)
	}
}

func TestMergeAttrLattices(t *testing.T) {
	a := New()
	a.Add("x", Attr{Nil: NonNil, Indeg: Root})
	b := New()
	b.Add("x", Attr{Nil: DefNil, Indeg: Attached})
	m := a.Merge(b)
	if got := m.Attr("x"); got != (Attr{Nil: MaybeNil, Indeg: UnknownDeg}) {
		t.Errorf("attr join = %+v", got)
	}
	c := New()
	c.Add("x", Attr{Nil: NonNil, Indeg: Shared})
	if got := a.Merge(c).Attr("x").Indeg; got != Shared {
		t.Errorf("shared absorbs: %v", got)
	}
}

func TestEqualIgnoresOrder(t *testing.T) {
	a := New()
	a.Add("x", nonNil())
	a.Add("y", nonNil())
	a.Put("x", "y", path.MustParseSet("L1"))
	b := New()
	b.Add("y", nonNil())
	b.Add("x", nonNil())
	b.Put("x", "y", path.MustParseSet("L1"))
	if !a.Equal(b) {
		t.Error("Equal should ignore insertion order")
	}
	b.Put("x", "y", path.MustParseSet("L1?"))
	if a.Equal(b) {
		t.Error("flag difference must be detected")
	}
}

func TestMergeIdempotentAndCommutative(t *testing.T) {
	mk := func(seed int64) *Matrix {
		m := New()
		hs := []Handle{"a", "b", "c"}
		for _, h := range hs {
			m.Add(h, nonNil())
		}
		sets := []string{"", "S?", "L1", "L+, R1?", "D+"}
		s := seed
		next := func() int64 { s = s*6364136223846793005 + 1442695040888963407; return s }
		for _, r := range hs {
			for _, c := range hs {
				if r == c {
					continue
				}
				pick := sets[int(uint64(next())%uint64(len(sets)))]
				if pick != "" {
					m.Put(r, c, path.MustParseSet(pick))
				}
			}
		}
		return m
	}
	f := func(sa, sb int64) bool {
		a, b := mk(sa), mk(sb)
		if !a.Merge(a).Equal(a) {
			t.Log("merge not idempotent")
			return false
		}
		return a.Merge(b).Equal(b.Merge(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRename(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L1"))
	r := m.Rename(map[Handle]Handle{"a": "h", "b": "l"})
	if !r.Has("h") || !r.Has("l") || r.Has("a") {
		t.Errorf("rename handles: %v", r.Handles())
	}
	if got := r.Get("h", "l").String(); got != "L1" {
		t.Errorf("rename entry = %q", got)
	}
}

// TestRenameNonInjective is the regression test for the silent-drop bug:
// with a non-injective substitution the old last-Put-wins behavior lost
// colliding entries and attribute evidence. Colliding entries must union
// and attributes must join in their lattices.
func TestRenameNonInjective(t *testing.T) {
	m := New()
	m.Add("a", Attr{Nil: NonNil, Indeg: Root})
	m.Add("b", Attr{Nil: NonNil, Indeg: Shared})
	m.Add("x", nonNil())
	m.Put("a", "x", path.MustParseSet("L1"))
	m.Put("b", "x", path.MustParseSet("R1?"))
	m.Put("x", "a", path.MustParseSet("S?"))
	r := m.Rename(map[Handle]Handle{"a": "c", "b": "c"})
	if r.Has("a") || r.Has("b") || !r.Has("c") {
		t.Fatalf("rename handles: %v", r.Handles())
	}
	// Both outgoing entries survive as a union, not last-wins.
	if got := r.Get("c", "x").String(); got != "L1, R1?" {
		t.Errorf("collided entry = %q, want union L1, R1?", got)
	}
	if got := r.Get("x", "c").String(); got != "S?" {
		t.Errorf("reverse entry = %q", got)
	}
	// Shared indegree evidence from b must survive the attribute join.
	if got := r.Attr("c").Indeg; got != Shared {
		t.Errorf("merged indegree = %v, want shared", got)
	}
	if got := r.Attr("c").Nil; got != NonNil {
		t.Errorf("merged nilness = %v, want nonnil", got)
	}
	// An injective rename is unchanged by the fix.
	inj := m.Rename(map[Handle]Handle{"a": "p", "b": "q"})
	if got := inj.Get("p", "x").String(); got != "L1" {
		t.Errorf("injective entry = %q", got)
	}
	if got := inj.Attr("p"); got != (Attr{Nil: NonNil, Indeg: Root}) {
		t.Errorf("injective attr = %+v", got)
	}
}

func TestProject(t *testing.T) {
	m := New()
	for _, h := range []Handle{"a", "b", "c"} {
		m.Add(h, nonNil())
	}
	m.Put("a", "b", path.MustParseSet("L1"))
	m.Put("a", "c", path.MustParseSet("R1"))
	p := m.Project([]Handle{"a", "b"})
	if p.Has("c") {
		t.Error("c should be projected away")
	}
	if got := p.Get("a", "b").String(); got != "L1" {
		t.Errorf("projected entry = %q", got)
	}
	if !p.Get("a", "c").IsEmpty() {
		t.Error("entry to projected handle should vanish")
	}
}

func TestFingerprintStableUnderOrder(t *testing.T) {
	a := New()
	a.Add("x", nonNil())
	a.Add("y", nonNil())
	a.Put("x", "y", path.MustParseSet("L1"))
	b := New()
	b.Add("y", nonNil())
	b.Add("x", nonNil())
	b.Put("x", "y", path.MustParseSet("L1"))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Fingerprint must be order-insensitive")
	}
	b.Put("y", "x", path.MustParseSet("S?"))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Fingerprint must reflect entries")
	}
	b.Put("y", "x", path.EmptySet())
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("deleting the entry must restore the fingerprint")
	}
	b.SetAttr("y", Attr{Nil: MaybeNil, Indeg: Shared})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Fingerprint must reflect attributes")
	}
}

// TestFingerprintIncrementalAgreesWithRecompute drives random mutation and
// derivation sequences and checks the incrementally maintained fingerprint
// against the from-scratch roll-up — the invariant the Equal fast-reject
// and the summary memoization rely on.
func TestFingerprintIncrementalAgreesWithRecompute(t *testing.T) {
	handles := []Handle{"a", "b", "c", "d"}
	sets := []string{"", "S?", "L1", "L+, R1?", "D+", "S, D2+?"}
	f := func(seed int64) bool {
		s := seed
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(uint64(s) % uint64(n))
		}
		m := New()
		check := func(stage string, mm *Matrix) bool {
			if mm.Fingerprint() != mm.recomputeFP() {
				t.Logf("seed %d: %s: incremental fp diverged from recompute", seed, stage)
				return false
			}
			return true
		}
		for op := 0; op < 40; op++ {
			switch next(7) {
			case 0:
				m.Add(handles[next(len(handles))], Attr{Nil: Nilness(next(3)), Indeg: Indegree(next(4))})
			case 1:
				m.Remove(handles[next(len(handles))])
			case 2:
				pick := sets[next(len(sets))]
				set := path.EmptySet()
				if pick != "" {
					set = path.MustParseSet(pick)
				}
				m.Put(handles[next(len(handles))], handles[next(len(handles))], set)
			case 3:
				m.SetShape(Shape(next(5)))
			case 4:
				m.SetAttr(handles[next(len(handles))], Attr{Nil: Nilness(next(3)), Indeg: Indegree(next(4))})
			case 5:
				m.AddPaths(handles[next(len(handles))], handles[next(len(handles))], path.MustParseSet("L1?"))
			case 6:
				m.Widen(path.Limits{MaxExact: 2, MaxSegs: 2, MaxPaths: 2})
			}
			if !check("mutate", m) {
				return false
			}
		}
		other := m.Copy()
		other.Add("e", nonNil())
		for _, stage := range []struct {
			name string
			mm   *Matrix
		}{
			{"copy", m.Copy()},
			{"merge", m.Merge(other)},
			{"rename", m.Rename(map[Handle]Handle{"a": "z", "b": "z"})},
			{"project", m.Project([]Handle{"a", "b"})},
		} {
			if !check(stage.name, stage.mm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWiden(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L5"))
	m.Widen(path.Limits{MaxExact: 2, MaxSegs: 6, MaxPaths: 8})
	if got := m.Get("a", "b").String(); got != "L2+" {
		t.Errorf("widen = %q", got)
	}
}

func TestStringLayout(t *testing.T) {
	m := New()
	m.Add("root", nonNil())
	m.Add("lside", nonNil())
	m.Put("root", "lside", path.MustParseSet("L1"))
	s := m.String()
	if !strings.Contains(s, "L1") || !strings.Contains(s, "shape: TREE") {
		t.Errorf("String = %q", s)
	}
}

func TestSymbolicHandles(t *testing.T) {
	if Symbolic(2) != "h*2" || Stacked(2) != "h**2" {
		t.Errorf("symbolic names: %s %s", Symbolic(2), Stacked(2))
	}
	if !Symbolic(1).IsSymbolic() || !Stacked(1).IsSymbolic() {
		t.Error("IsSymbolic")
	}
	if Handle("root").IsSymbolic() {
		t.Error("root is not symbolic")
	}
}

func TestShapeStrings(t *testing.T) {
	want := map[Shape]string{
		ShapeTree: "TREE", ShapeMaybeDAG: "DAG?", ShapeDAG: "DAG",
		ShapeMaybeCyclic: "CYCLE?", ShapeCyclic: "CYCLE",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d -> %q want %q", s, s.String(), w)
		}
	}
	if !ShapeTree.IsTree() || ShapeMaybeDAG.IsTree() {
		t.Error("IsTree")
	}
	if !ShapeDAG.DefinitelyAcyclic() || ShapeMaybeCyclic.DefinitelyAcyclic() {
		t.Error("DefinitelyAcyclic")
	}
}

// TestHandleIDsNotReusedAcrossEpochs: like path node IDs, handle IDs must
// be monotonic across Space resets — a stale matrix's packed entry keys
// must never collide with a fresh handle's ID and silently resolve to the
// wrong entry (the benign-failure clause of the epoch contract).
func TestHandleIDsNotReusedAcrossEpochs(t *testing.T) {
	sp := DefaultSpace()
	a := sp.idOf("epoch-probe-a")
	path.DefaultSpace().Reset()
	if got := InternedHandles(); got != 0 {
		t.Fatalf("reset must empty the handle table, have %d", got)
	}
	b := sp.idOf("epoch-probe-b")
	if b <= a {
		t.Errorf("handle ID %d reused/regressed across epochs (previous %d)", b, a)
	}
	if sp.nameOf(b) != "epoch-probe-b" {
		t.Errorf("nameOf(%d) = %q", b, sp.nameOf(b))
	}
}

// TestSpacesIsolated: two matrix Spaces are fully independent — interning
// in one never shows up in the other, and resetting one leaves the other's
// tables (and in-flight matrices) intact. This is the property the
// per-session service Spaces rely on.
func TestSpacesIsolated(t *testing.T) {
	spA := NewSpace(path.NewSpace())
	spB := NewSpace(path.NewSpace())
	mA, mB := NewIn(spA), NewIn(spB)
	mA.Add("x", Attr{Nil: NonNil, Indeg: Root})
	mA.Add("y", Attr{Nil: NonNil, Indeg: Root})
	mA.AddPaths("x", "y", path.NewSet(spA.Paths().New(path.Exact(path.LeftD, 1))))
	mB.Add("x", Attr{Nil: NonNil, Indeg: Root})
	if got := spB.InternedHandles(); got != 1 {
		t.Fatalf("space B saw %d handles, want its own 1", got)
	}
	if got := spA.InternedHandles(); got != 2 {
		t.Fatalf("space A saw %d handles, want 2", got)
	}
	epochA := spA.Paths().Epoch()
	spB.Paths().Reset()
	if spA.Paths().Epoch() != epochA {
		t.Fatalf("resetting space B bumped space A's epoch")
	}
	if got := spA.InternedHandles(); got != 2 {
		t.Fatalf("resetting space B dropped space A's handles (%d left)", got)
	}
	if got := mA.Get("x", "y").String(); got != "L1" {
		t.Fatalf("space A matrix entry damaged by space B reset: %q", got)
	}
	if got := spB.InternedHandles(); got != 0 {
		t.Fatalf("space B reset left %d handles", got)
	}
}

func TestAttrStrings(t *testing.T) {
	if DefNil.String() != "nil" || NonNil.String() != "nonnil" || MaybeNil.String() != "maybe" {
		t.Error("nilness strings")
	}
	if Root.String() != "root" || Attached.String() != "attached" || Shared.String() != "shared" || UnknownDeg.String() != "unknown" {
		t.Error("indegree strings")
	}
}

func TestAddPaths(t *testing.T) {
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.AddPaths("a", "b", path.MustParseSet("L1"))
	m.AddPaths("a", "b", path.MustParseSet("R1?"))
	if got := m.Get("a", "b").String(); got != "L1, R1?" {
		t.Errorf("AddPaths = %q", got)
	}
	m.AddPaths("a", "b", path.EmptySet())
	if got := m.Get("a", "b").String(); got != "L1, R1?" {
		t.Errorf("AddPaths empty changed entry: %q", got)
	}
}

// TestWidenAllocs: widening a matrix whose entries are already within the
// bounds rewrites nothing and allocates nothing.
func TestWidenAllocs(t *testing.T) {
	lim := path.Limits{MaxExact: 2, MaxSegs: 6, MaxPaths: 8}
	m := New()
	m.Add("a", nonNil())
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L5, R1D+?"))
	m.Widen(lim)
	fp := m.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { m.Widen(lim) }); n != 0 {
		t.Errorf("Matrix.Widen of a widened matrix: %v allocs, want 0", n)
	}
	if m.Fingerprint() != fp {
		t.Error("re-widening changed the matrix")
	}
}
