// Package path implements the path-expression algebra of Hendren & Nicolau
// (ICPP 1989, §4). A path describes the directed route between two nodes of
// a binary linked structure. The empty path, written S, means "same node".
// A non-empty path is a sequence of links; each link is one of
//
//	L^i  — exactly i left edges
//	L+   — one or more left edges
//	R^i  — exactly i right edges
//	R+   — one or more right edges
//	D^i  — exactly i down edges (left or right, direction unknown)
//	D+   — one or more down edges
//
// Every path is classified definite (guaranteed to exist) or possible
// (may or may not exist, rendered with a trailing "?").
//
// Two kinds of approximation are therefore encoded, exactly as in the
// paper's Figure 2: length approximation (the + forms) and direction
// approximation (the D forms). As a precision refinement over the paper's
// notation this implementation also admits links of the form Dir^{>=m} for
// m > 1 (rendered e.g. "L2+"); the paper's + is the m = 1 case.
package path

import (
	"fmt"
	"strconv"
)

// Dir is the direction of a link: left, right, or down (either).
type Dir uint8

// Link directions. DownD subsumes both LeftD and RightD.
const (
	LeftD Dir = iota
	RightD
	DownD
)

// String returns the single-letter spelling used in the paper.
func (d Dir) String() string {
	switch d {
	case LeftD:
		return "L"
	case RightD:
		return "R"
	case DownD:
		return "D"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// subsumesDir reports whether direction a admits every edge that b admits.
func subsumesDir(a, b Dir) bool { return a == b || a == DownD }

// Seg is one maximal run of links in a single direction.
// Invariant (enforced by canon): Min >= 1, and adjacent segments of a
// canonical path differ in Dir.
//
// If Inf is false the segment denotes exactly Min edges (the paper's Dir^i);
// if Inf is true it denotes Min or more edges (Min = 1 is the paper's Dir+).
type Seg struct {
	Dir Dir
	Min int
	Inf bool
}

// String renders the segment in paper notation: "L3", "L+", "R2+", "D+".
func (s Seg) String() string {
	switch {
	case s.Inf && s.Min <= 1:
		return s.Dir.String() + "+"
	case s.Inf:
		return fmt.Sprintf("%s%d+", s.Dir, s.Min)
	default:
		return fmt.Sprintf("%s%d", s.Dir, s.Min)
	}
}

// appendSegs appends the paper spelling of the segments (Seg.String of each,
// concatenated) to b without formatting through fmt.
func appendSegs(b []byte, segs []Seg) []byte {
	for _, s := range segs {
		b = append(b, s.Dir.String()...)
		if !s.Inf || s.Min > 1 {
			b = strconv.AppendInt(b, int64(s.Min), 10)
		}
		if s.Inf {
			b = append(b, '+')
		}
	}
	return b
}

// Path is an immutable path expression together with its definiteness flag.
// The zero value is the definite path S (same node). The expression part is
// interned (see intern.go): equal expressions share one node, so expression
// equality is a pointer comparison.
type Path struct {
	node     *pnode // nil means S
	possible bool
}

// segs returns the canonical segments backing the expression (nil for S).
func (p Path) segs() []Seg {
	if p.node == nil {
		return nil
	}
	return p.node.segs
}

// Same is the definite path S: the two handles refer to the same node.
func Same() Path { return Path{} }

// SamePossible is S?: the two handles may refer to the same node.
func SamePossible() Path { return Path{possible: true} }

// New builds a definite path from the given segments, canonicalizing them
// and interning into the process-default Space. New() with no segments is
// Same().
func New(segs ...Seg) Path { return newPathIn(procSpace, segs, false) }

// NewPossible builds a possible path from the given segments, interning
// into the process-default Space.
func NewPossible(segs ...Seg) Path { return newPathIn(procSpace, segs, true) }

// New builds a definite path owned by sp.
func (sp *Space) New(segs ...Seg) Path { return newPathIn(sp, segs, false) }

// NewPossible builds a possible path owned by sp.
func (sp *Space) NewPossible(segs ...Seg) Path { return newPathIn(sp, segs, true) }

// Exact is shorthand for the segment Dir^n.
func Exact(d Dir, n int) Seg { return Seg{Dir: d, Min: n} }

// Plus is shorthand for the segment Dir+ (one or more).
func Plus(d Dir) Seg { return Seg{Dir: d, Min: 1, Inf: true} }

// AtLeast is shorthand for the segment Dir^{>=m}.
func AtLeast(d Dir, m int) Seg { return Seg{Dir: d, Min: m, Inf: true} }

// canon coalesces adjacent same-direction segments and drops empty ones.
// A segment with Min <= 0 and !Inf is the empty run and vanishes; Min <= 0
// with Inf is normalized to Min = 1 by the callers that could produce it
// (Residue splits Dir^{>=0} into S plus Dir+ instead).
//
// It then normalizes the one remaining source of equal-language spellings:
// a concrete-direction ">= Min" segment adjacent to a D^{>=m} segment. The
// D neighbor absorbs the surplus edges (L^{>=a}·D^{>=b} ≡ L^a·D^{>=b},
// since l^x w with x >= a rewrites to l^a · (l^{x-a} w) and the remainder
// stays in D^{>=b}; symmetrically on the right), so the Inf flag drops and
// e.g. R+D2+ interns as R1D2+. With this rule two distinct canonical forms
// always denote distinct languages: equal languages force equal minimal
// words, which fix the (Dir, Min) run sequence, and the only Inf-flag
// freedom left is exactly this absorption (pinned by the intern-time
// property test that mutual Subsumes implies a shared node).
func canon(segs []Seg) []Seg {
	out := make([]Seg, 0, len(segs))
	for _, s := range segs {
		if s.Min <= 0 && !s.Inf {
			continue
		}
		if s.Min <= 0 { // Dir^{>=0}: callers must split; be safe and use Dir+.
			s.Min = 1
		}
		if n := len(out); n > 0 && out[n-1].Dir == s.Dir {
			out[n-1] = Seg{Dir: s.Dir, Min: out[n-1].Min + s.Min, Inf: out[n-1].Inf || s.Inf}
			continue
		}
		out = append(out, s)
	}
	infDown := func(i int) bool {
		return i >= 0 && i < len(out) && out[i].Dir == DownD && out[i].Inf
	}
	for i := range out {
		if out[i].Inf && out[i].Dir != DownD && (infDown(i-1) || infDown(i+1)) {
			out[i].Inf = false
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// IsSame reports whether the path is S (or S?).
func (p Path) IsSame() bool { return p.node == nil }

// Possible reports whether the path is only possible (rendered "?").
func (p Path) Possible() bool { return p.possible }

// Definite reports whether the path is guaranteed to exist.
func (p Path) Definite() bool { return !p.possible }

// AsPossible returns the same path expression flagged possible.
func (p Path) AsPossible() Path { p.possible = true; return p }

// AsDefinite returns the same path expression flagged definite.
func (p Path) AsDefinite() Path { p.possible = false; return p }

// Segs returns the canonical segments. The caller must not modify them.
func (p Path) Segs() []Seg { return p.segs() }

// NumSegs returns the number of canonical segments (0 for S).
func (p Path) NumSegs() int { return len(p.segs()) }

// MinLen returns the minimum number of edges the path can denote.
func (p Path) MinLen() int {
	if p.node == nil {
		return 0
	}
	return p.node.minLen
}

// Bounded reports whether the path denotes finitely many edge counts,
// returning the exact maximum length when it does.
func (p Path) Bounded() (maxLen int, ok bool) {
	if p.node == nil {
		return 0, true
	}
	if !p.node.bounded {
		return 0, false
	}
	return p.node.minLen, true
}

// ExprString renders the path expression without the definiteness marker.
func (p Path) ExprString() string {
	if p.node == nil {
		return "S"
	}
	return p.node.spell[:len(p.node.spell)-1]
}

// String renders the path in paper notation, with a trailing "?" when the
// path is possible: "S", "S?", "L1L+", "R1D+?".
func (p Path) String() string {
	switch {
	case p.node == nil && p.possible:
		return "S?"
	case p.node == nil:
		return "S"
	case p.possible:
		return p.node.spell
	default:
		return p.ExprString()
	}
}

// EqualExpr reports whether p and q denote the same path expression,
// ignoring definiteness. Interning makes this a pointer comparison.
func (p Path) EqualExpr(q Path) bool { return p.node == q.node }

// Equal reports whether p and q are identical, including definiteness.
func (p Path) Equal(q Path) bool { return p.possible == q.possible && p.node == q.node }

// IsExactEdge reports whether the path is exactly one edge in direction d.
func (p Path) IsExactEdge(d Dir) bool {
	segs := p.segs()
	return len(segs) == 1 && segs[0] == Exact(d, 1)
}

// Extend returns the path p followed by one extra edge in direction d
// (the operation used by the transfer function for a := b.f: every ancestor
// of b gains a path ancestor→a = path(ancestor→b)·f). The result stays in
// p's Space; extending S interns into the process default — callers whose
// operand may be S in a private Space use Space.Extend.
func (p Path) Extend(d Dir) Path {
	return extendN(spaceOf(procSpace, p), p, d, 1)
}

// ExtendN appends n >= 1 edges in direction d (Space derivation as Extend).
func (p Path) ExtendN(d Dir, n int) Path {
	return extendN(spaceOf(procSpace, p), p, d, n)
}

// Extend returns p followed by one extra edge in direction d, interned in
// sp (required when p may be S, which carries no owning Space).
func (sp *Space) Extend(p Path, d Dir) Path { return extendN(sp, p, d, 1) }

// ExtendN appends n >= 1 edges in direction d, interned in sp.
func (sp *Space) ExtendN(p Path, d Dir, n int) Path { return extendN(sp, p, d, n) }

func extendN(sp *Space, p Path, d Dir, n int) Path {
	ps := p.segs()
	segs := make([]Seg, len(ps), len(ps)+1)
	copy(segs, ps)
	segs = append(segs, Exact(d, n))
	return newPathIn(sp, segs, p.possible)
}

// Concat returns p followed by q. The result is definite only when both
// parts are definite; it stays in the operands' Space (when both are S the
// result is S-shaped and needs no Space at all).
func (p Path) Concat(q Path) Path {
	ps, qs := p.segs(), q.segs()
	segs := make([]Seg, 0, len(ps)+len(qs))
	segs = append(segs, ps...)
	segs = append(segs, qs...)
	return newPathIn(spaceOf(procSpace, p, q), segs, p.possible || q.possible)
}

// Residue computes the relationship between b.f and x, given that the
// relationship between b and x is p (a path b→x). The result is the set of
// possible paths b.f→x; an empty result means the analysis can prove there
// is no downward path from b.f to x along this route.
//
// This is the rule validated by the paper's Figure 2(c): the residue of D+
// by left is {S?, D+?} — e and c may be the same node, or c may be one or
// more edges below e.
//
// The returned slice may alias the owning Space's residue memo cache and
// must not be modified by the caller.
func (p Path) Residue(f Dir) []Path {
	if p.IsSame() {
		// b and x are the same node, so x is the parent of b.f: there is an
		// upward path, which path matrices do not record in this direction.
		return nil
	}
	base := residueMemo(p.node, f)
	if !p.possible || len(base) == 0 {
		return base
	}
	// The memo is computed for the definite form; a possible input demotes
	// every alternative.
	out := make([]Path, len(base))
	for i, r := range base {
		out[i] = r.AsPossible()
	}
	return out
}

// residueCompute is the uncached residue rule, evaluated on the definite
// form of a non-empty interned expression.
func residueCompute(n *pnode, f Dir) []Path {
	first, rest := n.segs[0], n.segs[1:]
	tail := func(extra ...Seg) Path {
		segs := make([]Seg, 0, len(extra)+len(rest))
		segs = append(segs, extra...)
		segs = append(segs, rest...)
		return newPathIn(n.sp, segs, false)
	}
	switch first.Dir {
	case f:
		// The first edge is guaranteed to match f, so definiteness survives.
		switch {
		case !first.Inf && first.Min == 1:
			return []Path{tail()}
		case !first.Inf:
			return []Path{tail(Exact(f, first.Min-1))}
		case first.Min > 1:
			return []Path{tail(AtLeast(f, first.Min-1))}
		default:
			// f^{>=1} minus one f edge = f^{>=0}: either nothing of the
			// segment remains or at least one more f edge follows. Neither
			// alternative alone is guaranteed.
			return []Path{tail().AsPossible(), tail(Plus(f)).AsPossible()}
		}
	case DownD:
		// A down edge may or may not have gone in direction f, so every
		// alternative is merely possible.
		switch {
		case !first.Inf && first.Min == 1:
			return []Path{tail().AsPossible()}
		case !first.Inf:
			return []Path{tail(Exact(DownD, first.Min-1)).AsPossible()}
		case first.Min > 1:
			return []Path{tail(AtLeast(DownD, first.Min-1)).AsPossible()}
		default:
			return []Path{tail().AsPossible(), tail(Plus(DownD)).AsPossible()}
		}
	default:
		// The first edge is concretely the opposite direction: b.f roots a
		// disjoint subtree, so no downward path to x exists along this route.
		return nil
	}
}

// compareSegs orders path expressions for canonical set layout.
func compareSegs(a, b []Seg) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		sa, sb := a[i], b[i]
		if sa.Dir != sb.Dir {
			return int(sa.Dir) - int(sb.Dir)
		}
		if sa.Min != sb.Min {
			return sa.Min - sb.Min
		}
		if sa.Inf != sb.Inf {
			if sa.Inf {
				return 1
			}
			return -1
		}
	}
	return len(a) - len(b)
}

// Compare orders paths: by expression, definite before possible.
func (p Path) Compare(q Path) int {
	if p.node != q.node {
		if c := compareSegs(p.segs(), q.segs()); c != 0 {
			return c
		}
	}
	switch {
	case p.possible == q.possible:
		return 0
	case p.possible:
		return 1
	default:
		return -1
	}
}
