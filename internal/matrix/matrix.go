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
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/path"
)

// Handle names a live handle variable. The interprocedural analysis also
// uses the symbolic handles of Figure 7: "h*1" (the caller's first actual
// argument) and "h**1" (all stacked recursive first arguments).
type Handle string

// Symbolic constructs the caller-argument symbolic handle h*i.
func Symbolic(i int) Handle { return Handle("h*" + strconv.Itoa(i)) }

// Stacked constructs the stacked-recursion symbolic handle h**i.
func Stacked(i int) Handle { return Handle("h**" + strconv.Itoa(i)) }

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
//
// A matrix relates a handful of handles (at most 8 at any point of the
// corpus), so it is stored as three small slices rather than hash maps:
// the handle names, a parallel slot per handle, and the non-empty entries
// sorted by packed key. Handles are found by scanning the names, entries
// by binary search, and Copy, Merge and Equal are linear passes.
type Matrix struct {
	// sp is the Space whose handle table assigns the slot IDs; derived
	// matrices (Copy, Merge, Rename, Project) inherit it.
	sp     *Space
	order  []Handle // insertion order, for paper-layout printing
	slots  []slot   // slots[i] belongs to order[i]
	cells  []cell   // the non-empty entries, sorted by key
	sticky Shape
	// fp is the incrementally maintained 128-bit fingerprint of
	// (sticky, slots, cells); see fingerprint.go. Every mutation of the
	// three fingerprinted fields must go through setSticky / addSlot /
	// putAttr / setEntry / appendCell (or subtract and re-add the
	// contribution itself) so the roll-up stays exact.
	fp Fp
}

// slot is one live handle's interned ID, resolved once when the name
// enters the matrix and carried over by Copy, Merge and Project, with the
// handle's attribute record.
type slot struct {
	id uint32
	a  Attr
}

// cell is one non-empty entry p[row, col].
type cell struct {
	k entryKey
	s path.Set
}

// entryKey packs the interned (row, col) handle pair of an entry; cells
// sort by it.
type entryKey uint64

func pairKey(row, col uint32) entryKey { return entryKey(uint64(row)<<32 | uint64(col)) }

func (k entryKey) row() uint32    { return uint32(k >> 32) }
func (k entryKey) col() uint32    { return uint32(k) }
func (k entryKey) diagonal() bool { return k.row() == k.col() }

// sameSet is the definite S diagonal of a non-nil handle. S carries no
// interned segments, so one value serves every Space.
var sameSet = path.NewSet(path.Same())

// New returns an empty matrix describing a TREE store with no live
// handles, interning in the default Space (one-shot CLI/test convenience;
// long-lived consumers use NewIn).
func New() *Matrix { return NewIn(DefaultSpace()) }

// NewIn returns an empty TREE matrix whose handles intern into sp.
func NewIn(sp *Space) *Matrix {
	return &Matrix{sp: sp, fp: stickyFP(ShapeTree)}
}

// Space returns the matrix's owning Space.
func (m *Matrix) Space() *Space { return m.sp }

// Copy returns a deep copy (in the same Space).
func (m *Matrix) Copy() *Matrix {
	return &Matrix{
		sp:     m.sp,
		order:  slices.Clone(m.order),
		slots:  slices.Clone(m.slots),
		cells:  slices.Clone(m.cells),
		sticky: m.sticky,
		fp:     m.fp,
	}
}

// slotOf returns the index of h's slot, or -1 when h is not live.
func (m *Matrix) slotOf(h Handle) int { return slices.Index(m.order, h) }

// slotByID returns the index of the slot with the given ID, or -1.
func (m *Matrix) slotByID(id uint32) int {
	for i, sl := range m.slots {
		if sl.id == id {
			return i
		}
	}
	return -1
}

// find binary-searches the cells for k: the index of its cell, or of
// where it would be inserted.
func (m *Matrix) find(k entryKey) (int, bool) {
	lo, hi := 0, len(m.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.cells[mid].k < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.cells) && m.cells[lo].k == k
}

// at returns the entry stored under k (empty when absent).
func (m *Matrix) at(k entryKey) path.Set {
	if i, ok := m.find(k); ok {
		return m.cells[i].s
	}
	return path.EmptySet()
}

// key is the packed key of the entry relating slots i and j.
func (m *Matrix) key(i, j int) entryKey { return pairKey(m.slots[i].id, m.slots[j].id) }

// setSticky, addSlot, putAttr, setEntry and appendCell are the writers of
// the fingerprinted fields: each keeps m.fp in sync by subtracting the old
// contribution and adding the new one.

func (m *Matrix) setSticky(s Shape) {
	if s == m.sticky {
		return
	}
	m.fpSub(stickyFP(m.sticky))
	m.sticky = s
	m.fpAdd(stickyFP(s))
}

// addSlot appends a handle that is not live yet.
func (m *Matrix) addSlot(h Handle, id uint32, a Attr) {
	m.order = append(m.order, h)
	m.slots = append(m.slots, slot{id: id, a: a})
	m.fpAdd(attrFP(id, a))
}

func (m *Matrix) putAttr(i int, a Attr) {
	sl := &m.slots[i]
	if sl.a == a {
		return
	}
	m.fpSub(attrFP(sl.id, sl.a))
	sl.a = a
	m.fpAdd(attrFP(sl.id, a))
}

// setEntry stores s under k; an empty set deletes the cell.
func (m *Matrix) setEntry(k entryKey, s path.Set) {
	i, ok := m.find(k)
	switch {
	case ok && s.IsEmpty():
		m.fpSub(entryFP(k, m.cells[i].s))
		m.cells = slices.Delete(m.cells, i, i+1)
		return
	case ok:
		m.fpSub(entryFP(k, m.cells[i].s))
		m.cells[i].s = s
	case s.IsEmpty():
		return
	default:
		m.cells = slices.Insert(m.cells, i, cell{k: k, s: s})
	}
	m.fpAdd(entryFP(k, s))
}

// appendCell stores s under a key greater than every key present (the
// merge-join and filter passes build cells in key order).
func (m *Matrix) appendCell(k entryKey, s path.Set) {
	if s.IsEmpty() {
		return
	}
	m.cells = append(m.cells, cell{k: k, s: s})
	m.fpAdd(entryFP(k, s))
}

// seedDiagonals gives every non-nil handle that has no diagonal cell the
// S diagonal Add seeds, as derivations that add handles through Add did.
func (m *Matrix) seedDiagonals() {
	for _, sl := range m.slots {
		if sl.a.Nil == DefNil {
			continue
		}
		k := pairKey(sl.id, sl.id)
		if _, ok := m.find(k); !ok {
			m.setEntry(k, sameSet)
		}
	}
}

// Shape returns the current structure estimate: the sticky damage joined
// with sharing visible in the live indegree attributes.
func (m *Matrix) Shape() Shape {
	s := m.sticky
	for _, sl := range m.slots {
		a := sl.a
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
func (m *Matrix) Has(h Handle) bool { return m.slotOf(h) >= 0 }

// Handles returns the live handles in insertion order. Callers must not
// modify the returned slice.
func (m *Matrix) Handles() []Handle { return m.order }

// Attr returns the attribute record for h (zero Attr if not live).
func (m *Matrix) Attr(h Handle) Attr {
	if i := m.slotOf(h); i >= 0 {
		return m.slots[i].a
	}
	return Attr{}
}

// SetAttr updates the attribute record for a live handle.
func (m *Matrix) SetAttr(h Handle, a Attr) {
	if i := m.slotOf(h); i >= 0 {
		m.putAttr(i, a)
	}
}

// Add introduces a handle with the given attributes and resets its
// diagonal entry: a non-nil handle relates to itself by exactly the
// definite S, a nil one by nothing. Re-adding a live handle keeps its
// position and its off-diagonal entries but replaces its attributes and
// resets the diagonal the same way, discarding whatever diagonal it had
// (the transfer functions re-add a handle to restore its S diagonal).
func (m *Matrix) Add(h Handle, a Attr) {
	i := m.slotOf(h)
	if i < 0 {
		m.addSlot(h, m.sp.idOf(h), a)
		i = len(m.slots) - 1
	} else {
		m.putAttr(i, a)
	}
	diag := path.EmptySet()
	if a.Nil != DefNil {
		diag = sameSet
	}
	m.setEntry(m.key(i, i), diag)
}

// Remove kills a handle: its row and column disappear (the paper's
// treatment of dead or reassigned handles). Structure evidence the handle
// carried folds into the sticky estimate.
func (m *Matrix) Remove(h Handle) {
	i := m.slotOf(h)
	if i < 0 {
		return
	}
	sl := m.slots[i]
	m.foldDyingAttr(sl.a)
	m.fpSub(attrFP(sl.id, sl.a))
	// A fresh order slice: callers may be ranging over Handles().
	m.order = append(m.order[:i:i], m.order[i+1:]...)
	m.slots = slices.Delete(m.slots, i, i+1)
	m.cells = slices.DeleteFunc(m.cells, func(c cell) bool {
		if c.k.row() != sl.id && c.k.col() != sl.id {
			return false
		}
		m.fpSub(entryFP(c.k, c.s))
		return true
	})
}

// Get returns the entry p[a,b] (empty set when absent or handles unknown).
func (m *Matrix) Get(a, b Handle) path.Set {
	i, j := m.slotOf(a), m.slotOf(b)
	if i < 0 || j < 0 {
		return path.EmptySet()
	}
	return m.at(m.key(i, j))
}

// Put sets the entry p[a,b]; an empty set deletes it.
func (m *Matrix) Put(a, b Handle, s path.Set) {
	i, j := m.slotOf(a), m.slotOf(b)
	if i < 0 || j < 0 {
		return
	}
	m.setEntry(m.key(i, j), s)
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
// and equality is still decided structurally (collision safety). Both
// matrices share one Space, so a handle is the same in both exactly when
// its slot ID is.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.fp != o.fp || m.sticky != o.sticky || len(m.slots) != len(o.slots) || len(m.cells) != len(o.cells) {
		return false
	}
	for i, sl := range m.slots {
		if o.slots[i] != sl && !slices.Contains(o.slots, sl) {
			return false
		}
	}
	for i, c := range m.cells {
		if c.k != o.cells[i].k || !c.s.Equal(o.cells[i].s) {
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
// weakening. Both matrices share one Space, so handles match by slot ID
// and the entries merge as one join of the two sorted cell lists.
func (m *Matrix) Merge(o *Matrix) *Matrix {
	out := NewIn(m.sp)
	out.setSticky(mergeShape(m.sticky, o.sticky))
	// Preserve m's ordering first, then o's extras. A node shared on only
	// one side is possibly shared: the Indegree lattice has no value for
	// that, so the evidence moves to the sticky estimate.
	extra := 0
	for _, sl := range o.slots {
		if m.slotByID(sl.id) < 0 {
			extra++
		}
	}
	out.order = make([]Handle, 0, len(m.order)+extra)
	out.slots = make([]slot, 0, len(m.order)+extra)
	oneSided := func(a Attr) Attr { return Attr{Nil: mergeNilness(a.Nil, MaybeNil), Indeg: a.Indeg} }
	for i, h := range m.order {
		sl := m.slots[i]
		j := o.slotByID(sl.id)
		if j < 0 {
			out.addSlot(h, sl.id, oneSided(sl.a))
			continue
		}
		a, b := sl.a, o.slots[j].a
		if (a.Indeg == Shared) != (b.Indeg == Shared) {
			out.SetShape(ShapeMaybeDAG)
		}
		out.addSlot(h, sl.id, Attr{Nil: mergeNilness(a.Nil, b.Nil), Indeg: mergeIndegree(a.Indeg, b.Indeg)})
	}
	for j, h := range o.order {
		if sl := o.slots[j]; m.slotByID(sl.id) < 0 {
			out.addSlot(h, sl.id, oneSided(sl.a))
		}
	}
	// One merge-join over the sorted cells; an entry present on one side
	// only merges against the empty set, keeping MergeJoin's operand order
	// (m's entry first).
	out.cells = make([]cell, 0, joinLen(m.cells, o.cells))
	a, b := m.cells, o.cells
	for len(a) > 0 || len(b) > 0 {
		var k entryKey
		var merged path.Set
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].k < b[0].k:
			k, merged = a[0].k, a[0].s.MergeJoin(path.EmptySet())
			a = a[1:]
		case len(a) == 0 || b[0].k < a[0].k:
			k, merged = b[0].k, path.EmptySet().MergeJoin(b[0].s)
			b = b[1:]
		default:
			k, merged = a[0].k, a[0].s.MergeJoin(b[0].s)
			a, b = a[1:], b[1:]
		}
		if k.diagonal() && out.slots[out.slotByID(k.row())].a.Nil != DefNil {
			// Keep the definite S diagonal for handles live on both sides.
			merged = merged.Add(path.Same())
		}
		out.appendCell(k, merged)
	}
	out.seedDiagonals()
	return out
}

// joinLen counts the distinct keys of two sorted cell lists.
func joinLen(a, b []cell) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].k < b[0].k:
			a = a[1:]
		case b[0].k < a[0].k:
			b = b[1:]
		default:
			a, b = a[1:], b[1:]
		}
		n++
	}
	return n + len(a) + len(b)
}

// Widen applies the domain bounds to every entry, rewriting only the
// entries the bounds actually change. Widening never empties a set, so
// the cells keep their keys and order.
func (m *Matrix) Widen(lim path.Limits) {
	for i := range m.cells {
		c := &m.cells[i]
		if w := c.s.Widen(lim); !w.Equal(c.s) {
			m.fpSub(entryFP(c.k, c.s))
			c.s = w
			m.fpAdd(entryFP(c.k, w))
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
	for i, h := range m.order {
		n, a := name(h), m.slots[i].a
		if out.Has(n) {
			prev := out.Attr(n)
			a = Attr{Nil: mergeNilness(prev.Nil, a.Nil), Indeg: mergeIndegree(prev.Indeg, a.Indeg)}
		}
		out.Add(n, a)
	}
	for _, c := range m.cells {
		row, col := m.order[m.slotByID(c.k.row())], m.order[m.slotByID(c.k.col())]
		out.AddPaths(name(row), name(col), c.s)
	}
	return out
}

// Project restricts the matrix to the given handles (dropping all others).
func (m *Matrix) Project(keep []Handle) *Matrix {
	out := NewIn(m.sp)
	out.setSticky(m.sticky)
	for i, h := range m.order {
		if slices.Contains(keep, h) {
			out.addSlot(h, m.slots[i].id, m.slots[i].a)
		} else {
			out.foldDyingAttr(m.slots[i].a)
		}
	}
	for _, c := range m.cells {
		if out.slotByID(c.k.row()) >= 0 && out.slotByID(c.k.col()) >= 0 {
			out.appendCell(c.k, c.s)
		}
	}
	out.seedDiagonals()
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
	for i, r := range m.order {
		fmt.Fprintf(tw, "%s\t", r)
		for j := range m.order {
			e := m.at(m.key(i, j))
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
