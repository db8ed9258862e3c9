// Package matrix implements the path matrices of Hendren & Nicolau (§4):
// for every pair of live handles (a, b), the matrix entry p[a,b] is a set of
// path expressions estimating every possible way b sits at or below a in the
// linked structure. Alongside the relation, each handle carries a nil-ness
// and an indegree attribute, and the matrix carries an overall structure
// estimate (TREE / DAG / cyclic), which together implement the paper's
// structural verification (§3.1).
package matrix

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/path"
)

// Handle names a live handle variable. The interprocedural analysis also
// uses the symbolic handles of Figure 7: "h*1" (the caller's first actual
// argument) and "h**1" (all stacked recursive first arguments).
type Handle string

// Symbolic constructs the caller-argument symbolic handle h*i.
func Symbolic(i int) Handle { return Handle(fmt.Sprintf("h*%d", i)) }

// Stacked constructs the stacked-recursion symbolic handle h**i.
func Stacked(i int) Handle { return Handle(fmt.Sprintf("h**%d", i)) }

// IsSymbolic reports whether h is an h* or h** handle.
func (h Handle) IsSymbolic() bool { return strings.Contains(string(h), "*") }

// Nilness is the nil attribute lattice for a handle.
type Nilness uint8

// Nilness values: definitely nil, definitely non-nil, or unknown.
const (
	DefNil Nilness = iota
	NonNil
	MaybeNil
)

func (n Nilness) String() string {
	switch n {
	case DefNil:
		return "nil"
	case NonNil:
		return "nonnil"
	case MaybeNil:
		return "maybe"
	}
	return fmt.Sprintf("Nilness(%d)", uint8(n))
}

// mergeNilness joins two nil estimates from alternative control paths.
func mergeNilness(a, b Nilness) Nilness {
	if a == b {
		return a
	}
	return MaybeNil
}

// Indegree estimates how many parents the node referred to by a handle has.
// It drives the possible-DAG verdict on a.f := b: attaching a node that may
// already have a parent creates sharing.
type Indegree uint8

// Indegree values.
const (
	Root       Indegree = iota // no parent (fresh from new(), or a known root)
	Attached                   // exactly one parent known
	Shared                     // more than one parent possible (DAG territory)
	UnknownDeg                 // no information (e.g. procedure arguments)
)

func (d Indegree) String() string {
	switch d {
	case Root:
		return "root"
	case Attached:
		return "attached"
	case Shared:
		return "shared"
	case UnknownDeg:
		return "unknown"
	}
	return fmt.Sprintf("Indegree(%d)", uint8(d))
}

func mergeIndegree(a, b Indegree) Indegree {
	if a == b {
		return a
	}
	if a == Shared || b == Shared {
		return Shared
	}
	return UnknownDeg
}

// Attr is the per-handle attribute record.
type Attr struct {
	Nil   Nilness
	Indeg Indegree
}

// Shape is the overall structure estimate, ordered by severity; merging
// takes the maximum. It realizes the paper's TREE/DAG classification with
// definite and possible levels.
type Shape uint8

// Shape values, from best to worst.
const (
	ShapeTree Shape = iota
	ShapeMaybeDAG
	ShapeDAG
	ShapeMaybeCyclic
	ShapeCyclic
)

func (s Shape) String() string {
	switch s {
	case ShapeTree:
		return "TREE"
	case ShapeMaybeDAG:
		return "DAG?"
	case ShapeDAG:
		return "DAG"
	case ShapeMaybeCyclic:
		return "CYCLE?"
	case ShapeCyclic:
		return "CYCLE"
	}
	return fmt.Sprintf("Shape(%d)", uint8(s))
}

// IsTree reports whether the structure is certainly a TREE.
func (s Shape) IsTree() bool { return s == ShapeTree }

// DefinitelyAcyclic reports whether no cycle can exist.
func (s Shape) DefinitelyAcyclic() bool { return s <= ShapeDAG }

// Matrix is a path matrix at one program point. Matrices are mutable; use
// Copy before a destructive update when the original must survive (the
// analysis engine copies at every control-flow split).
//
// The structure estimate has two components. The sticky part records
// unrecoverable damage: cycles, sharing through handles of unknown
// indegree, and shared nodes whose handles died. The recoverable part is
// derived from the live indegree attributes: a handle marked Shared means
// its node currently has two parents. This split is what lets the paper's
// reverse (§1: "a tree may be changed temporarily into a DAG, as an
// intermediate step in swapping some nodes") verify as TREE again once the
// swap completes.
type Matrix struct {
	// sp is the Space whose handle table keys the entries; derived matrices
	// (Copy, Merge, Rename, Project) inherit it.
	sp      *Space
	order   []Handle // insertion order, for paper-layout printing
	entries map[entryKey]path.Set
	attrs   map[Handle]Attr
	sticky  Shape
	// fp is the incrementally maintained 128-bit fingerprint of
	// (sticky, attrs, entries); see fingerprint.go. Every mutation of the
	// three fingerprinted fields must go through setSticky / putAttr /
	// dropAttr / setEntry so the roll-up stays exact.
	fp Fp
}

// New returns an empty matrix describing a TREE store with no live
// handles, interning in the default Space (one-shot CLI/test convenience;
// long-lived consumers use NewIn).
func New() *Matrix { return NewIn(DefaultSpace()) }

// NewIn returns an empty TREE matrix whose handles intern into sp.
func NewIn(sp *Space) *Matrix {
	return &Matrix{
		sp:      sp,
		entries: make(map[entryKey]path.Set),
		attrs:   make(map[Handle]Attr),
		fp:      stickyFP(ShapeTree),
	}
}

// Space returns the matrix's owning Space.
func (m *Matrix) Space() *Space { return m.sp }

// Copy returns a deep copy (in the same Space).
func (m *Matrix) Copy() *Matrix {
	c := &Matrix{
		sp:      m.sp,
		order:   append([]Handle(nil), m.order...),
		entries: make(map[entryKey]path.Set, len(m.entries)),
		attrs:   make(map[Handle]Attr, len(m.attrs)),
		sticky:  m.sticky,
		fp:      m.fp,
	}
	for k, v := range m.entries {
		c.entries[k] = v
	}
	for k, v := range m.attrs {
		c.attrs[k] = v
	}
	return c
}

// setSticky, putAttr, dropAttr and setEntry are the only writers of the
// fingerprinted fields: each keeps m.fp in sync by subtracting the old
// contribution and adding the new one.

func (m *Matrix) setSticky(s Shape) {
	if s == m.sticky {
		return
	}
	m.fpSub(stickyFP(m.sticky))
	m.sticky = s
	m.fpAdd(stickyFP(s))
}

func (m *Matrix) putAttr(h Handle, a Attr) {
	if old, ok := m.attrs[h]; ok {
		if old == a {
			return
		}
		m.fpSub(attrFP(m.sp, h, old))
	}
	m.attrs[h] = a
	m.fpAdd(attrFP(m.sp, h, a))
}

func (m *Matrix) dropAttr(h Handle) {
	if old, ok := m.attrs[h]; ok {
		m.fpSub(attrFP(m.sp, h, old))
		delete(m.attrs, h)
	}
}

func (m *Matrix) setEntry(k entryKey, s path.Set) {
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

// Shape returns the current structure estimate: the sticky damage joined
// with sharing visible in the live indegree attributes.
func (m *Matrix) Shape() Shape {
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

// StickyShape returns only the unrecoverable component of the estimate
// (used when mapping a callee's exit into the caller: recoverable sharing
// travels through the h* attributes instead).
func (m *Matrix) StickyShape() Shape { return m.sticky }

// SetShape records a sticky structure verdict; the estimate only degrades.
func (m *Matrix) SetShape(s Shape) {
	if s > m.sticky {
		m.setSticky(s)
	}
}

// ResetShape forcibly sets the sticky estimate (used when entering a fresh
// store or seeding a callee entry).
func (m *Matrix) ResetShape(s Shape) { m.setSticky(s) }

// foldDyingAttr preserves structure evidence carried by a handle that is
// about to disappear: a shared node without a name can never be proven
// un-shared again.
func (m *Matrix) foldDyingAttr(a Attr) {
	if a.Indeg == Shared && a.Nil != DefNil {
		if a.Nil == MaybeNil {
			m.SetShape(ShapeMaybeDAG)
		} else {
			m.SetShape(ShapeDAG)
		}
	}
}

// Has reports whether h is live in the matrix.
func (m *Matrix) Has(h Handle) bool {
	_, ok := m.attrs[h]
	return ok
}

// Handles returns the live handles in insertion order. Callers must not
// modify the returned slice.
func (m *Matrix) Handles() []Handle { return m.order }

// Attr returns the attribute record for h (zero Attr if not live).
func (m *Matrix) Attr(h Handle) Attr { return m.attrs[h] }

// SetAttr updates the attribute record for a live handle.
func (m *Matrix) SetAttr(h Handle, a Attr) {
	if !m.Has(h) {
		return
	}
	m.putAttr(h, a)
}

// Add introduces a handle with the given attributes. A non-nil handle
// relates to itself by definite S; re-adding an existing handle only
// updates its attributes.
func (m *Matrix) Add(h Handle, a Attr) {
	if !m.Has(h) {
		m.order = append(m.order, h)
	}
	m.putAttr(h, a)
	if a.Nil != DefNil {
		m.setEntry(m.sp.ek(h, h), path.NewSet(path.Same()))
	} else {
		m.setEntry(m.sp.ek(h, h), path.EmptySet())
	}
}

// Remove kills a handle: its row and column disappear (the paper's
// treatment of dead or reassigned handles). Structure evidence the handle
// carried folds into the sticky estimate.
func (m *Matrix) Remove(h Handle) {
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
	m.dropAttr(h)
	hid := m.sp.idOf(h)
	for k, v := range m.entries {
		if uint32(k>>32) == hid || uint32(k) == hid {
			m.fpSub(entryFP(k, v))
			delete(m.entries, k)
		}
	}
}

// Get returns the entry p[a,b] (empty set when absent or handles unknown).
func (m *Matrix) Get(a, b Handle) path.Set {
	return m.entries[m.sp.ek(a, b)]
}

// Put sets the entry p[a,b]; an empty set deletes it.
func (m *Matrix) Put(a, b Handle, s path.Set) {
	if !m.Has(a) || !m.Has(b) {
		return
	}
	m.setEntry(m.sp.ek(a, b), s)
}

// AddPaths unions extra paths into p[a,b].
func (m *Matrix) AddPaths(a, b Handle, s path.Set) {
	if s.IsEmpty() {
		return
	}
	m.Put(a, b, m.Get(a, b).Union(s))
}

// Related reports whether a and b are related in either direction
// (including aliasing). Per §5.2, unrelated handles guarantee disjoint
// reachable node sets in a TREE store.
func (m *Matrix) Related(a, b Handle) bool {
	if a == b {
		return true
	}
	return !m.Get(a, b).IsEmpty() || !m.Get(b, a).IsEmpty()
}

// MayAlias reports whether a and b may refer to the same node.
func (m *Matrix) MayAlias(a, b Handle) bool {
	if a == b {
		return true
	}
	return m.Get(a, b).HasSame() || m.Get(b, a).HasSame()
}

// Equal compares matrices: same handles (any order), equal entries, equal
// attributes and shape. This is the convergence test of the Figure 3
// iteration; the fingerprint comparison rejects unequal matrices in O(1)
// and equality is still decided structurally (collision safety).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.fp != o.fp {
		return false
	}
	if m.sticky != o.sticky || len(m.attrs) != len(o.attrs) {
		return false
	}
	for h, a := range m.attrs {
		oa, ok := o.attrs[h]
		if !ok || a != oa {
			return false
		}
	}
	if len(m.entries) != len(o.entries) {
		return false
	}
	for k, v := range m.entries {
		if !o.entries[k].Equal(v) {
			return false
		}
	}
	return true
}

// mergeShape joins the sticky estimates of two alternative control paths:
// damage definite on only one side is merely possible afterwards.
func mergeShape(a, b Shape) Shape {
	if a == b {
		return a
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	weakened := hi
	switch hi {
	case ShapeDAG:
		weakened = ShapeMaybeDAG
	case ShapeCyclic:
		weakened = ShapeMaybeCyclic
	}
	if weakened > lo {
		return weakened
	}
	return lo
}

// Merge joins two estimates from alternative control-flow paths into a new
// matrix: handles live on only one side stay live (their relations demoted
// to possible), entries merge pointwise with definite-iff-definite-in-both,
// attributes join in their lattices, sticky shape joins with one-sided
// weakening.
func (m *Matrix) Merge(o *Matrix) *Matrix {
	out := NewIn(m.sp)
	out.setSticky(mergeShape(m.sticky, o.sticky))
	// Preserve m's ordering first, then o's extras. A node shared on only
	// one side is possibly shared: the Indegree lattice has no value for
	// that, so the evidence moves to the sticky estimate.
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
	// Entries move by packed key (both matrices share one Space), so no key
	// round-trips through the handle table: liveness and the row handle's
	// merged attributes are looked up by ID.
	live := out.liveIDs()
	put := func(k entryKey, merged path.Set) {
		row, okR := live[uint32(k>>32)]
		_, okC := live[uint32(k)]
		if !okR || !okC {
			return
		}
		if k.diagonal() && row.Nil != DefNil {
			// Keep the definite S diagonal for handles live on both sides.
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

// liveIDs maps the interned ID of every live handle to its attributes, so
// key-level rewrites (Merge, Project) test liveness without resolving
// packed keys back to names. The handle table is read-locked once; Add
// interned every live handle, so only a matrix from a reset epoch can miss.
func (m *Matrix) liveIDs() map[uint32]Attr {
	ids := make(map[uint32]Attr, len(m.order))
	m.sp.mu.RLock()
	for _, h := range m.order {
		if id, ok := m.sp.ids[h]; ok {
			ids[id] = m.attrs[h]
		}
	}
	m.sp.mu.RUnlock()
	return ids
}

// Widen applies the domain bounds to every entry, rewriting only the
// entries the bounds actually change.
func (m *Matrix) Widen(lim path.Limits) {
	for k, v := range m.entries {
		if w := v.Widen(lim); !w.Equal(v) {
			m.setEntry(k, w)
		}
	}
}

// Rename rewrites handle names (used to map actuals to formals at calls).
// Unmapped handles keep their names. The substitution need not be
// injective: when several handles collapse onto one name, their attribute
// records join in the attribute lattices (Shared indegree evidence
// survives the join) and their entries union pointwise — the previous
// last-Put-wins behavior silently dropped entries and attribute evidence.
func (m *Matrix) Rename(sub map[Handle]Handle) *Matrix {
	name := func(h Handle) Handle {
		if n, ok := sub[h]; ok {
			return n
		}
		return h
	}
	out := NewIn(m.sp)
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
		row, col := m.sp.keyHandles(k)
		out.AddPaths(name(row), name(col), v)
	}
	return out
}

// Project restricts the matrix to the given handles (dropping all others).
func (m *Matrix) Project(keep []Handle) *Matrix {
	want := make(map[Handle]bool, len(keep))
	for _, h := range keep {
		want[h] = true
	}
	out := NewIn(m.sp)
	out.setSticky(m.sticky)
	for _, h := range m.order {
		if want[h] {
			out.Add(h, m.attrs[h])
		} else {
			out.foldDyingAttr(m.attrs[h])
		}
	}
	live := out.liveIDs()
	for k, v := range m.entries {
		_, okR := live[uint32(k>>32)]
		_, okC := live[uint32(k)]
		if okR && okC {
			out.setEntry(k, v)
		}
	}
	return out
}

// String renders the matrix as the paper's figures lay it out: one row and
// column per handle in insertion order, entries in path notation, plus the
// shape and attribute summary.
func (m *Matrix) String() string {
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
