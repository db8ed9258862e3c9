package path

import (
	"slices"
	"strings"
)

// Limits bounds the abstract domain so that the iterative approximation of
// §4 (Figure 3) and the recursive procedure summaries of §5.2 terminate.
// They are the knobs of the E-AB2 widening ablation.
type Limits struct {
	// MaxExact is the largest exact edge count kept in a segment; larger
	// counts are widened to the >= form (the paper's +).
	MaxExact int
	// MaxSegs is the largest number of direction runs kept in one path;
	// longer paths have their suffix collapsed into a single D segment.
	MaxSegs int
	// MaxPaths is the widest path set kept per matrix entry; wider sets are
	// collapsed (non-S members fold into D+? / D^{>=m}?).
	MaxPaths int
}

// DefaultLimits are generous enough to keep every figure of the paper exact
// while still guaranteeing termination.
var DefaultLimits = Limits{MaxExact: 8, MaxSegs: 6, MaxPaths: 8}

// widenPath applies the per-path structural bounds. A path already within
// them is returned as is: it is interned in canonical form, so rebuilding
// it would only re-intern the same node.
func widenPath(p Path, lim Limits) Path {
	segs := p.segs()
	changed := false
	for i, s := range segs {
		if !s.Inf && s.Min > lim.MaxExact {
			if !changed {
				segs = append([]Seg(nil), segs...)
				changed = true
			}
			segs[i] = Seg{Dir: s.Dir, Min: lim.MaxExact, Inf: true}
		}
	}
	if !changed && len(segs) <= lim.MaxSegs {
		return p
	}
	if len(segs) > lim.MaxSegs {
		if !changed {
			segs = append([]Seg(nil), segs...)
		}
		// Collapse the suffix beyond MaxSegs-1 into one D segment that
		// covers at least the collapsed minimum length.
		keep := lim.MaxSegs - 1
		min, inf := 0, false
		for _, s := range segs[keep:] {
			min += s.Min
			inf = inf || s.Inf
		}
		collapsed := Seg{Dir: DownD, Min: min, Inf: true}
		_ = inf // the collapse is already a >= form
		segs = append(segs[:keep:keep], collapsed)
		// Direction was approximated, so the path is merely possible now
		// unless it already subsumed: collapsing to D^{>=min} still covers
		// the original language, so definiteness is preserved for
		// existence; but the expression is weaker. Existence is what the
		// flag asserts, so keep it.
	}
	return newPathIn(spaceOf(procSpace, p), segs, p.possible)
}

// Set is a canonical set of paths: the estimate of the relationship between
// two handles (one path-matrix entry). The zero value is the empty set,
// meaning "no downward path from the row handle to the column handle".
//
// Sets are value-like: operations return new sets and never mutate inputs.
type Set struct {
	ps []Path // sorted by Compare, unique by expression
	// fp is the order-independent 128-bit fingerprint of the members,
	// maintained incrementally at construction (see fp.go).
	fp [2]uint64
}

// EmptySet is the entry for unrelated handles.
func EmptySet() Set { return Set{} }

// NewSet builds a canonical set from the given paths. When the same
// expression occurs both definite and possible, definite wins (it is the
// stronger statement along the may/must axis used by the analysis: the set
// records all possible relationships, and the flag upgrades one to a
// guarantee).
func NewSet(paths ...Path) Set { return canonSet(slices.Clone(paths)) }

// canonSet builds the canonical set of the collected members ps, taking
// ownership of the slice: one sort by Compare brings each expression's
// spellings together with the definite one first, and keeping the first
// member of each expression applies the definite-wins rule of NewSet.
// Every operation that derives a set from arbitrary members funnels through
// here instead of folding Add, so a result costs one sort, not one re-sort
// per member.
func canonSet(ps []Path) Set {
	if len(ps) > 1 {
		slices.SortFunc(ps, Path.Compare)
		ps = slices.CompactFunc(ps, Path.EqualExpr)
	}
	return mkSet(ps)
}

// IsEmpty reports whether the handles are unrelated.
func (s Set) IsEmpty() bool { return len(s.ps) == 0 }

// Len returns the number of distinct path expressions.
func (s Set) Len() int { return len(s.ps) }

// Paths returns the canonical contents. Callers must not modify the slice.
func (s Set) Paths() []Path { return s.ps }

// Add returns s with p included, keeping canonical form, at the cost of
// one allocation (a binary search finds p's slot). Upgrading an existing
// possible member to definite replaces it in place: members are unique by
// expression and Compare consults the definiteness flag only between equal
// expressions, so the flag flip cannot reorder the member relative to any
// other (pinned by the canonical-order property test in set_test.go).
func (s Set) Add(p Path) Set {
	i, found := slices.BinarySearchFunc(s.ps, p, compareExpr)
	if found {
		q := s.ps[i]
		if !q.possible || p.possible {
			return s
		}
		out := slices.Clone(s.ps)
		out[i] = p
		fp := s.fp
		of, nf := pathFP(q), pathFP(p)
		fp[0] += nf[0] - of[0]
		fp[1] += nf[1] - of[1]
		return Set{ps: out, fp: fp}
	}
	out := make([]Path, len(s.ps)+1)
	copy(out, s.ps[:i])
	out[i] = p
	copy(out[i+1:], s.ps[i:])
	f := pathFP(p)
	return Set{ps: out, fp: [2]uint64{s.fp[0] + f[0], s.fp[1] + f[1]}}
}

// compareExpr orders paths by expression alone, ignoring definiteness:
// within one set it is a total order, because members are unique by
// expression.
func compareExpr(p, q Path) int {
	if p.node == q.node {
		return 0
	}
	return compareSegs(p.segs(), q.segs())
}

// mergeMembers walks the canonical member lists of two sets in step. An
// expression present on both sides contributes both(p, q), a one-sided
// member contributes one(p); the output is canonical by construction, so
// no sort is needed.
func mergeMembers(s, t []Path, both func(p, q Path) Path, one func(Path) Path) []Path {
	out := make([]Path, 0, len(s)+len(t))
	for len(s) > 0 && len(t) > 0 {
		switch c := compareExpr(s[0], t[0]); {
		case c == 0:
			out = append(out, both(s[0], t[0]))
			s, t = s[1:], t[1:]
		case c < 0:
			out = append(out, one(s[0]))
			s = s[1:]
		default:
			out = append(out, one(t[0]))
			t = t[1:]
		}
	}
	for _, p := range s {
		out = append(out, one(p))
	}
	for _, q := range t {
		out = append(out, one(q))
	}
	return out
}

// Union returns the union of two sets collected along a single control-flow
// path (definite-wins on duplicate expressions), as one merge of the two
// sorted member lists. Unions with an empty operand share the other set
// unchanged — sets are immutable values, and Matrix.Rename funnels every
// entry through here.
func (s Set) Union(t Set) Set {
	if len(s.ps) == 0 {
		return t
	}
	if len(t.ps) == 0 {
		return s
	}
	return mkSet(mergeMembers(s.ps, t.ps, func(p, q Path) Path {
		if p.possible {
			return q
		}
		return p
	}, func(p Path) Path { return p }))
}

// MergeJoin combines estimates from two alternative control-flow paths
// (if/else arms, loop iterations). A path expression is definite in the
// result only if it is definite in both inputs; expressions present on only
// one side survive as possible. Joining a set with an equal one yields it
// unchanged, so that common case shares s.
func (s Set) MergeJoin(t Set) Set {
	if s.Equal(t) {
		return s
	}
	return mkSet(mergeMembers(s.ps, t.ps, func(p, q Path) Path {
		if q.possible {
			return q
		}
		return p
	}, Path.AsPossible))
}

// Demote returns s with every path for which cond holds downgraded to
// possible (used by the a.f := b kill rule).
func (s Set) Demote(cond func(Path) bool) Set {
	out := make([]Path, len(s.ps))
	for i, p := range s.ps {
		if cond(p) {
			p = p.AsPossible()
		}
		out[i] = p
	}
	return canonSet(out)
}

// Filter returns the subset satisfying keep.
func (s Set) Filter(keep func(Path) bool) Set {
	var out []Path
	for _, p := range s.ps {
		if keep(p) {
			out = append(out, p)
		}
	}
	return canonSet(out)
}

// ExtendAll appends one edge in direction d to every member. Results stay
// in each member's Space; an S member extends into the process default —
// callers whose sets may contain S in a private Space use Space.ExtendAll.
func (s Set) ExtendAll(d Dir) Set {
	out := make([]Path, len(s.ps))
	for i, p := range s.ps {
		out[i] = p.Extend(d)
	}
	return canonSet(out)
}

// ExtendAll appends one edge in direction d to every member, interning the
// results in sp (required when the set may contain S).
func (sp *Space) ExtendAll(s Set, d Dir) Set {
	out := make([]Path, len(s.ps))
	for i, p := range s.ps {
		out[i] = sp.Extend(p, d)
	}
	return canonSet(out)
}

// ConcatAll returns {p·q : p ∈ s, q ∈ t}.
func (s Set) ConcatAll(t Set) Set {
	out := make([]Path, 0, len(s.ps)*len(t.ps))
	for _, p := range s.ps {
		for _, q := range t.ps {
			out = append(out, p.Concat(q))
		}
	}
	return canonSet(out)
}

// ResidueAll computes the entry for (b.f → x) from the entry for (b → x).
func (s Set) ResidueAll(f Dir) Set {
	var out []Path
	for _, p := range s.ps {
		out = append(out, p.Residue(f)...)
	}
	return canonSet(out)
}

// Widen applies the domain bounds: per-path structural bounds, then
// subsumption-dropping of covered possible members, then — only if the set
// is still too wide — direction-preserving signature collapse, and as a
// last resort a fold into a single D^{>=m}? member. A set already within
// the bounds is returned as is, without allocating.
func (s Set) Widen(lim Limits) Set {
	out := s
	if slices.ContainsFunc(s.ps, func(p Path) bool { return !widenPath(p, lim).Equal(p) }) {
		ps := make([]Path, len(s.ps))
		for i, p := range s.ps {
			ps[i] = widenPath(p, lim)
		}
		out = canonSet(ps)
	}
	out = out.dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	out = out.collapseBySignature().dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	// Too wide: keep an S member if present, fold the rest into one
	// possible D^{>=m} covering every collapsed path. The fold interns into
	// the folded members' Space (min >= 0 implies a non-S member, so the
	// owner is always derivable).
	var collapsed []Path
	min := -1
	var own *Space
	hadSame := false
	samePossible := true
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
		collapsed = append(collapsed, Path{possible: samePossible})
	}
	if min >= 0 {
		if min < 1 {
			min = 1
		}
		collapsed = append(collapsed, newPathIn(own, []Seg{AtLeast(DownD, min)}, true))
	}
	return canonSet(collapsed)
}

// dropSubsumed removes possible members whose language is covered by some
// other member; definite members are never dropped (they carry a stronger
// existence guarantee). Intern-time canonicalization (canon's absorption
// rule) gives every language exactly one spelling, so two distinct members
// can never subsume each other mutually and coverage is a strict partial
// order on the set: a maximal member always survives, and dropping every
// covered member cannot empty a non-empty set.
func (s Set) dropSubsumed() Set {
	if len(s.ps) < 2 {
		return s
	}
	var keep []Path // allocated only once a member is dropped
	for i, q := range s.ps {
		if s.covered(i) {
			if keep == nil {
				keep = append(make([]Path, 0, len(s.ps)-1), s.ps[:i]...)
			}
			continue
		}
		if keep != nil {
			keep = append(keep, q)
		}
	}
	if keep == nil {
		return s
	}
	return mkSet(keep)
}

// covered reports whether member i is possible and its language is covered
// by some other member.
func (s Set) covered(i int) bool {
	q := s.ps[i]
	if q.Definite() {
		return false
	}
	for j, p := range s.ps {
		if i != j && !q.EqualExpr(p) && Subsumes(p, q) {
			return true
		}
	}
	return false
}

// collapseBySignature merges members sharing the same direction signature
// into one generalized path (L1, L2 → L+; L1R2, L2R1 → L+R+), preserving
// direction information that the final D-collapse would lose. The merged
// path is definite only when every merged member was.
func (s Set) collapseBySignature() Set {
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
	out := make([]Path, 0, len(order))
	for _, sig := range order {
		g := groups[sig]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		first := g[0]
		segs := append([]Seg(nil), first.segs()...)
		definite := first.Definite()
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
		out = append(out, newPathIn(spaceOf(procSpace, first), segs, !definite))
	}
	return canonSet(out)
}

// Equal reports set equality including definiteness flags. The fingerprint
// comparison is a fast reject; equality is still decided structurally.
func (s Set) Equal(t Set) bool {
	if s.fp != t.fp || len(s.ps) != len(t.ps) {
		return false
	}
	for i := range s.ps {
		if !s.ps[i].Equal(t.ps[i]) {
			return false
		}
	}
	return true
}

// HasSame reports whether the set contains S or S? — i.e. the two handles
// may refer to the same node (the alias condition of §5.1's A function).
func (s Set) HasSame() bool {
	for _, p := range s.ps {
		if p.IsSame() {
			return true
		}
	}
	return false
}

// HasDefiniteSame reports whether the set contains definite S — the two
// handles certainly refer to the same node.
func (s Set) HasDefiniteSame() bool {
	for _, p := range s.ps {
		if p.IsSame() && p.Definite() {
			return true
		}
	}
	return false
}

// HasDefinite reports whether any member is definite.
func (s Set) HasDefinite() bool {
	for _, p := range s.ps {
		if p.Definite() {
			return true
		}
	}
	return false
}

// AllPossible returns the set with every member demoted to possible.
func (s Set) AllPossible() Set {
	return s.Demote(func(Path) bool { return true })
}

// MayOverlapSet reports whether some path of s and some path of t can
// denote the same node (both sets rooted at the same handle).
func MayOverlapSet(s, t Set) bool {
	for _, p := range s.ps {
		for _, q := range t.ps {
			if MayOverlap(p, q) {
				return true
			}
		}
	}
	return false
}

// String renders the set in paper notation: members separated by ", ",
// or "{}" for the empty set.
func (s Set) String() string { return string(s.AppendText(nil)) }

// AppendText appends the String rendering of the set to b and returns the
// extended buffer; callers building a larger key reuse one buffer.
func (s Set) AppendText(b []byte) []byte {
	if s.IsEmpty() {
		return append(b, "{}"...)
	}
	for i, p := range s.ps {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p.String()...)
	}
	return b
}

// ParseSet parses the String form back into a set interned in the
// process-default Space; it accepts the notation used throughout the
// paper's figures ("S", "L1L+", "R1D+?", comma separated). It is the test
// helper that lets figure-replay tests state expected matrices in the
// paper's own syntax.
func ParseSet(src string) (Set, error) { return procSpace.ParseSet(src) }

// ParseSet parses the String form back into a set owned by sp.
func (sp *Space) ParseSet(src string) (Set, error) {
	src = strings.TrimSpace(src)
	if src == "" || src == "{}" {
		return EmptySet(), nil
	}
	var out []Path
	for _, part := range strings.Split(src, ",") {
		p, err := sp.Parse(strings.TrimSpace(part))
		if err != nil {
			return Set{}, err
		}
		out = append(out, p)
	}
	return canonSet(out), nil
}
