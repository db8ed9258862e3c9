package matrix

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"text/tabwriter"

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
	// Re-adding also resets the diagonal: a non-nil re-add restores exactly
	// the definite S whatever the diagonal held, a nil re-add clears it,
	// and off-diagonal entries survive either way.
	m.Add("b", nonNil())
	m.Put("a", "b", path.MustParseSet("L1"))
	m.Put("a", "a", path.MustParseSet("S?, L1R1+?"))
	m.Add("a", Attr{Nil: NonNil, Indeg: Attached})
	if got := m.Get("a", "a").String(); got != "S" {
		t.Errorf("diagonal after non-nil re-add = %q, want S", got)
	}
	m.Put("a", "a", path.MustParseSet("S?"))
	m.Add("a", Attr{Nil: DefNil, Indeg: Root})
	if got := m.Get("a", "a"); !got.IsEmpty() {
		t.Errorf("diagonal after nil re-add = %q, want empty", got)
	}
	if got := m.Get("a", "b").String(); got != "L1" {
		t.Errorf("re-add disturbed p[a,b] = %q", got)
	}
	if got := m.Handles(); !slices.Equal(got, []Handle{"a", "b"}) {
		t.Errorf("re-add moved handles: %v", got)
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
	if again := sp.idOf("epoch-probe-b"); again != b {
		t.Errorf("idOf(epoch-probe-b) = %d, then %d: IDs must be stable within an epoch", b, again)
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

// refMatrix is the former two-map representation of a path matrix (a
// map[Handle]Attr plus a map of packed keys to sets), kept as the
// reference model the slot/cell representation is checked against. It
// recomputes nothing incrementally except the fingerprint, resolves every
// name through the Space's handle table, and derives Merge, Rename and
// Project by whole-map passes, as the original did.
type refMatrix struct {
	sp      *Space
	order   []Handle
	entries map[entryKey]path.Set
	attrs   map[Handle]Attr
	names   map[uint32]Handle // resolves packed keys back to names
	sticky  Shape
	fp      Fp
}

func newRef(sp *Space) *refMatrix {
	return &refMatrix{
		sp:      sp,
		entries: make(map[entryKey]path.Set),
		attrs:   make(map[Handle]Attr),
		names:   make(map[uint32]Handle),
		fp:      stickyFP(ShapeTree),
	}
}

func (m *refMatrix) id(h Handle) uint32 {
	id := m.sp.idOf(h)
	m.names[id] = h
	return id
}

func (m *refMatrix) ek(a, b Handle) entryKey { return pairKey(m.id(a), m.id(b)) }

func (m *refMatrix) copyNames(o *refMatrix) {
	for id, h := range o.names {
		m.names[id] = h
	}
}

func (m *refMatrix) fpAdd(d Fp) { m.fp.Hi += d.Hi; m.fp.Lo += d.Lo }
func (m *refMatrix) fpSub(d Fp) { m.fp.Hi -= d.Hi; m.fp.Lo -= d.Lo }

func (m *refMatrix) Copy() *refMatrix {
	c := newRef(m.sp)
	c.order = append([]Handle(nil), m.order...)
	for k, v := range m.entries {
		c.entries[k] = v
	}
	for k, v := range m.attrs {
		c.attrs[k] = v
	}
	c.copyNames(m)
	c.sticky, c.fp = m.sticky, m.fp
	return c
}

func (m *refMatrix) setSticky(s Shape) {
	if s == m.sticky {
		return
	}
	m.fpSub(stickyFP(m.sticky))
	m.sticky = s
	m.fpAdd(stickyFP(s))
}

func (m *refMatrix) putAttr(h Handle, a Attr) {
	if old, ok := m.attrs[h]; ok {
		if old == a {
			return
		}
		m.fpSub(attrFP(m.id(h), old))
	}
	m.attrs[h] = a
	m.fpAdd(attrFP(m.id(h), a))
}

func (m *refMatrix) setEntry(k entryKey, s path.Set) {
	if old, ok := m.entries[k]; ok {
		m.fpSub(entryFP(k, old))
	}
	if s.IsEmpty() {
		delete(m.entries, k)
		return
	}
	m.entries[k] = s
	m.fpAdd(entryFP(k, s))
}

func (m *refMatrix) Shape() Shape {
	s := m.sticky
	for _, a := range m.attrs {
		if a.Indeg != Shared || a.Nil == DefNil {
			continue
		}
		derived := ShapeDAG
		if a.Nil == MaybeNil {
			derived = ShapeMaybeDAG
		}
		if derived > s {
			s = derived
		}
	}
	return s
}

func (m *refMatrix) SetShape(s Shape) {
	if s > m.sticky {
		m.setSticky(s)
	}
}

func (m *refMatrix) foldDyingAttr(a Attr) {
	if a.Indeg == Shared && a.Nil != DefNil {
		if a.Nil == MaybeNil {
			m.SetShape(ShapeMaybeDAG)
		} else {
			m.SetShape(ShapeDAG)
		}
	}
}

func (m *refMatrix) Has(h Handle) bool { _, ok := m.attrs[h]; return ok }

func (m *refMatrix) SetAttr(h Handle, a Attr) {
	if m.Has(h) {
		m.putAttr(h, a)
	}
}

func (m *refMatrix) Add(h Handle, a Attr) {
	if !m.Has(h) {
		m.order = append(m.order, h)
	}
	m.putAttr(h, a)
	if a.Nil != DefNil {
		m.setEntry(m.ek(h, h), path.NewSet(path.Same()))
	} else {
		m.setEntry(m.ek(h, h), path.EmptySet())
	}
}

func (m *refMatrix) Remove(h Handle) {
	if !m.Has(h) {
		return
	}
	m.foldDyingAttr(m.attrs[h])
	for i, o := range m.order {
		if o == h {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	m.fpSub(attrFP(m.id(h), m.attrs[h]))
	delete(m.attrs, h)
	hid := m.id(h)
	for k, v := range m.entries {
		if k.row() == hid || k.col() == hid {
			m.fpSub(entryFP(k, v))
			delete(m.entries, k)
		}
	}
}

func (m *refMatrix) Get(a, b Handle) path.Set { return m.entries[m.ek(a, b)] }

func (m *refMatrix) Put(a, b Handle, s path.Set) {
	if m.Has(a) && m.Has(b) {
		m.setEntry(m.ek(a, b), s)
	}
}

func (m *refMatrix) AddPaths(a, b Handle, s path.Set) {
	if !s.IsEmpty() {
		m.Put(a, b, m.Get(a, b).Union(s))
	}
}

func (m *refMatrix) Merge(o *refMatrix) *refMatrix {
	out := newRef(m.sp)
	out.setSticky(mergeShape(m.sticky, o.sticky))
	mergeAttrs := func(a, b Attr) Attr {
		if (a.Indeg == Shared) != (b.Indeg == Shared) {
			out.SetShape(ShapeMaybeDAG)
		}
		return Attr{Nil: mergeNilness(a.Nil, b.Nil), Indeg: mergeIndegree(a.Indeg, b.Indeg)}
	}
	for _, h := range m.order {
		if oa, ok := o.attrs[h]; ok {
			out.Add(h, mergeAttrs(m.attrs[h], oa))
		} else {
			a := m.attrs[h]
			out.Add(h, Attr{Nil: mergeNilness(a.Nil, MaybeNil), Indeg: a.Indeg})
		}
	}
	for _, h := range o.order {
		if !m.Has(h) {
			a := o.attrs[h]
			out.Add(h, Attr{Nil: mergeNilness(a.Nil, MaybeNil), Indeg: a.Indeg})
		}
	}
	put := func(k entryKey, merged path.Set) {
		row, col := out.names[k.row()], out.names[k.col()]
		if !out.Has(row) || !out.Has(col) {
			return
		}
		if k.diagonal() && out.attrs[row].Nil != DefNil {
			merged = merged.Add(path.Same())
		}
		out.setEntry(k, merged)
	}
	for k, v := range m.entries {
		put(k, v.MergeJoin(o.entries[k]))
	}
	for k, v := range o.entries {
		if _, ok := m.entries[k]; !ok {
			put(k, path.EmptySet().MergeJoin(v))
		}
	}
	return out
}

func (m *refMatrix) Widen(lim path.Limits) {
	for k, v := range m.entries {
		if w := v.Widen(lim); !w.Equal(v) {
			m.setEntry(k, w)
		}
	}
}

func (m *refMatrix) Rename(sub map[Handle]Handle) *refMatrix {
	name := func(h Handle) Handle {
		if n, ok := sub[h]; ok {
			return n
		}
		return h
	}
	out := newRef(m.sp)
	out.setSticky(m.sticky)
	for _, h := range m.order {
		n, a := name(h), m.attrs[h]
		if out.Has(n) {
			prev := out.attrs[n]
			a = Attr{Nil: mergeNilness(prev.Nil, a.Nil), Indeg: mergeIndegree(prev.Indeg, a.Indeg)}
		}
		out.Add(n, a)
	}
	for k, v := range m.entries {
		out.AddPaths(name(m.names[k.row()]), name(m.names[k.col()]), v)
	}
	return out
}

func (m *refMatrix) Project(keep []Handle) *refMatrix {
	want := make(map[Handle]bool, len(keep))
	for _, h := range keep {
		want[h] = true
	}
	out := newRef(m.sp)
	out.setSticky(m.sticky)
	for _, h := range m.order {
		if want[h] {
			out.Add(h, m.attrs[h])
		} else {
			out.foldDyingAttr(m.attrs[h])
		}
	}
	for k, v := range m.entries {
		if out.Has(m.names[k.row()]) && out.Has(m.names[k.col()]) {
			out.setEntry(k, v)
		}
	}
	return out
}

func (m *refMatrix) Encode() Encoded {
	e := Encoded{Sticky: m.sticky}
	e.Handles = make([]EncodedHandle, 0, len(m.order))
	for _, h := range m.order {
		a := m.attrs[h]
		e.Handles = append(e.Handles, EncodedHandle{Handle: h, Nil: a.Nil, Indeg: a.Indeg})
	}
	for _, r := range m.order {
		for _, c := range m.order {
			if s := m.Get(r, c); !s.IsEmpty() {
				e.Cells = append(e.Cells, EncodedCell{Row: r, Col: c, Paths: s.String()})
			}
		}
	}
	return e
}

func (m *refMatrix) String() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, ".\t")
	for _, c := range m.order {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for _, r := range m.order {
		fmt.Fprintf(tw, "%s\t", r)
		for _, c := range m.order {
			e := m.Get(r, c)
			if e.IsEmpty() {
				fmt.Fprintf(tw, ".\t")
			} else {
				fmt.Fprintf(tw, "%s\t", strings.ReplaceAll(e.String(), ", ", ","))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(&sb, "shape: %s", m.Shape())
	return sb.String()
}

// agreeWithRef reports the first observable difference between m and its
// reference model over the handle universe hs, or "" when they agree.
func agreeWithRef(m *Matrix, r *refMatrix, hs []Handle) string {
	if !slices.Equal(m.Handles(), r.order) {
		return fmt.Sprintf("Handles() = %v, reference %v", m.Handles(), r.order)
	}
	if m.Shape() != r.Shape() || m.StickyShape() != r.sticky {
		return fmt.Sprintf("Shape() = %v/%v, reference %v/%v", m.Shape(), m.StickyShape(), r.Shape(), r.sticky)
	}
	for _, a := range hs {
		if m.Has(a) != r.Has(a) || m.Attr(a) != r.attrs[a] {
			return fmt.Sprintf("Attr(%s) = %+v, reference %+v", a, m.Attr(a), r.attrs[a])
		}
		for _, b := range hs {
			if !m.Get(a, b).Equal(r.Get(a, b)) {
				return fmt.Sprintf("Get(%s, %s) = %v, reference %v", a, b, m.Get(a, b), r.Get(a, b))
			}
		}
	}
	if got, want := m.Encode(), r.Encode(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Encode() = %+v, reference %+v", got, want)
	}
	if got, want := m.String(), r.String(); got != want {
		return fmt.Sprintf("String() = %q, reference %q", got, want)
	}
	if m.Fingerprint() != r.fp {
		return fmt.Sprintf("Fingerprint() = %v, reference %v", m.Fingerprint(), r.fp)
	}
	if m.Fingerprint() != m.recomputeFP() {
		return "incremental fingerprint diverged from recomputeFP"
	}
	if !m.Equal(m.Copy()) {
		return "matrix not Equal to its own copy"
	}
	return ""
}

// TestMatrixAgreesWithReferenceModel drives random operation sequences on
// the slot/cell matrix and on the two-map reference model side by side,
// and after every step requires identical handles, attributes, shapes,
// entries for every handle pair, encodings, renderings and fingerprints.
// Merge takes its second operand from a pool of earlier states, so both
// operands routinely carry handles (and so cell keys) the other lacks.
func TestMatrixAgreesWithReferenceModel(t *testing.T) {
	hs := []Handle{"a", "b", "c", "d", "e", "p", "q"}
	sets := []string{"", "S", "S?", "L1", "L1?", "L+, R1?", "D+", "S, D2+?", "L5, R1D+?"}
	f := func(seed int64) bool {
		s := seed
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(uint64(s>>33) % uint64(n))
		}
		handle := func() Handle { return hs[next(len(hs))] }
		set := func() path.Set {
			if pick := sets[next(len(sets))]; pick != "" {
				return path.MustParseSet(pick)
			}
			return path.EmptySet()
		}
		attr := func() Attr { return Attr{Nil: Nilness(next(3)), Indeg: Indegree(next(4))} }
		type pair struct {
			m *Matrix
			r *refMatrix
		}
		cur := pair{New(), newRef(DefaultSpace())}
		pool := []pair{cur}
		for step := 0; step < 60; step++ {
			var op string
			switch next(12) {
			case 0, 1:
				h, a := handle(), attr()
				op = fmt.Sprintf("Add(%s, %+v)", h, a)
				cur.m.Add(h, a)
				cur.r.Add(h, a)
			case 2:
				h := handle()
				op = fmt.Sprintf("Remove(%s)", h)
				cur.m.Remove(h)
				cur.r.Remove(h)
			case 3, 4:
				a, b, v := handle(), handle(), set()
				op = fmt.Sprintf("Put(%s, %s, %v)", a, b, v)
				cur.m.Put(a, b, v)
				cur.r.Put(a, b, v)
			case 5:
				a, b, v := handle(), handle(), set()
				op = fmt.Sprintf("AddPaths(%s, %s, %v)", a, b, v)
				cur.m.AddPaths(a, b, v)
				cur.r.AddPaths(a, b, v)
			case 6:
				h, a := handle(), attr()
				op = fmt.Sprintf("SetAttr(%s, %+v)", h, a)
				cur.m.SetAttr(h, a)
				cur.r.SetAttr(h, a)
			case 7:
				sh := Shape(next(5))
				op = fmt.Sprintf("SetShape(%v)", sh)
				cur.m.SetShape(sh)
				cur.r.SetShape(sh)
			case 8:
				lim := path.Limits{MaxExact: 1 + next(2), MaxSegs: 1 + next(3), MaxPaths: 1 + next(3)}
				op = fmt.Sprintf("Widen(%+v)", lim)
				cur.m.Widen(lim)
				cur.r.Widen(lim)
			case 9:
				o := pool[next(len(pool))]
				if next(2) == 0 {
					op = "Merge(pool)"
					cur = pair{cur.m.Merge(o.m), cur.r.Merge(o.r)}
				} else {
					op = "pool.Merge"
					cur = pair{o.m.Merge(cur.m), o.r.Merge(cur.r)}
				}
			case 10:
				sub := map[Handle]Handle{handle(): handle(), handle(): handle()}
				op = fmt.Sprintf("Rename(%v)", sub)
				cur = pair{cur.m.Rename(sub), cur.r.Rename(sub)}
			case 11:
				var keep []Handle
				for _, h := range hs {
					if next(3) > 0 {
						keep = append(keep, h)
					}
				}
				op = fmt.Sprintf("Project(%v)", keep)
				cur = pair{cur.m.Project(keep), cur.r.Project(keep)}
			}
			if next(4) == 0 {
				pool = append(pool, cur)
				cur = pair{cur.m.Copy(), cur.r.Copy()}
				op += "; Copy"
			}
			if diff := agreeWithRef(cur.m, cur.r, hs); diff != "" {
				t.Logf("seed %d, step %d, after %s: %s", seed, step, op, diff)
				return false
			}
		}
		// The pooled states must not have been disturbed by the
		// derivations and mutations made after they were pooled.
		for i, p := range pool {
			if diff := agreeWithRef(p.m, p.r, hs); diff != "" {
				t.Logf("seed %d, pooled state %d: %s", seed, i, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fiveHandles builds a matrix of five related handles, the size the
// corpus's matrices run at.
func fiveHandles() *Matrix {
	m := New()
	for _, h := range []Handle{"root", "l", "r", "ll", "t"} {
		m.Add(h, nonNil())
	}
	m.Put("root", "l", path.MustParseSet("L1"))
	m.Put("root", "r", path.MustParseSet("R1"))
	m.Put("root", "ll", path.MustParseSet("L2"))
	m.Put("l", "ll", path.MustParseSet("L1"))
	m.Put("t", "r", path.MustParseSet("S?"))
	return m
}

// TestQueryAllocs pins the queries, and Put over an existing entry, to
// zero allocations: handles are found in the matrix's own slots and
// entries by binary search, with no map and no handle-table lookup.
func TestQueryAllocs(t *testing.T) {
	m := fiveHandles()
	c := m.Copy()
	l1, r1 := path.MustParseSet("L1"), path.MustParseSet("L1, R1?")
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Get", func() { _ = m.Get("root", "ll") }},
		{"Get absent", func() { _ = m.Get("zz", "l") }},
		{"Has", func() { _ = m.Has("t") }},
		{"Attr", func() { _ = m.Attr("r") }},
		{"Related", func() { _ = m.Related("l", "r") }},
		{"MayAlias", func() { _ = m.MayAlias("r", "t") }},
		{"Equal", func() { _ = m.Equal(c) }},
		{"Put existing", func() { c.Put("l", "ll", r1); c.Put("l", "ll", l1) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
	if !m.Equal(c) {
		t.Error("Put round trip changed the copy")
	}
}

// TestCopyAllocs: a copy is the matrix header plus three slice clones.
func TestCopyAllocs(t *testing.T) {
	m := fiveHandles()
	if n := testing.AllocsPerRun(100, func() { _ = m.Copy() }); n > 4 {
		t.Errorf("Copy of a 5-handle matrix: %v allocs, want <= 4", n)
	}
}

// TestConcurrentReadersDoNotWrite: the engine's round workers read shared
// summary matrices concurrently, so the read-only operations — Copy,
// Merge, Equal, Get, Encode — must never write their receiver or their
// argument, while other workers keep adding fresh handle names to other
// matrices of the same Space. Run under -race.
func TestConcurrentReadersDoNotWrite(t *testing.T) {
	sp := NewSpace(path.NewSpace())
	shared := NewIn(sp)
	for _, h := range []Handle{"root", "l", "r", "t"} {
		shared.Add(h, Attr{Nil: MaybeNil, Indeg: UnknownDeg})
	}
	l1 := path.NewSet(sp.Paths().New(path.Exact(path.LeftD, 1)))
	shared.Put("root", "l", l1)
	shared.Put("t", "r", path.NewSet(path.SamePossible()))
	want := shared.Encode()
	fp := shared.Fingerprint()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			other := NewIn(sp)
			other.Add(Handle(fmt.Sprintf("fresh%d", i)), nonNil())
			other.Add("root", nonNil())
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				c := shared.Copy()
				if !c.Equal(shared) || !shared.Equal(c) {
					t.Error("copy not Equal to the shared matrix")
					return
				}
				if mm := shared.Merge(shared); !mm.Equal(shared) {
					t.Error("merge with itself changed the matrix")
					return
				}
				c.Add("x", nonNil())
				_ = shared.Merge(c)
				_ = c.Merge(shared)
				if !shared.Get("root", "l").Equal(l1) {
					t.Error("Get read a changed entry")
					return
				}
				if e := shared.Encode(); !reflect.DeepEqual(e, want) {
					t.Error("Encode changed")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if shared.Fingerprint() != fp || !reflect.DeepEqual(shared.Encode(), want) {
		t.Error("shared matrix changed under concurrent readers")
	}
}
