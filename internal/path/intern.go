package path

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the interning layer that canonicalizes every path
// expression to a unique node within one Space epoch. Two Paths denote
// the same expression iff they hold the same *pnode, which turns the
// structural comparisons on the analysis hot path (Set.Equal, Set.find,
// dropSubsumed, MayOverlapSet) into pointer/ID comparisons. Each node
// carries a precomputed 64-bit signature (a seed-hash of the canonical
// segments), a small unique ID, and a back-pointer to its owning Space,
// which is how derived operations stay inside the right table set without
// threading a Space argument through every call; the language-question
// memo tables in memo.go are keyed by (ID, ID) pairs. Each node also
// stores its paper spelling, so rendering a path never formats, and the
// shape of its words (minimum length, boundedness, first and last
// direction), which lets Subsumes reject most pairs before the memo.
//
// The table is sharded and mutex-guarded so the concurrent analysis
// fixpoint and the parallel property tests can intern from many goroutines
// without contending on a single lock. Interned nodes are immutable; the
// table they live in belongs to a Space (space.go), whose Reset drops an
// epoch's nodes wholesale between analysis batches.

// pnode is one interned path expression (never the empty path S, which is
// represented by a nil node so that the zero Path value remains S).
type pnode struct {
	id   uint32
	sig  uint64
	segs []Seg // canonical; immutable after interning
	// sp is the owning Space: derived operations (Extend, Concat, Residue,
	// the verdict questions) intern and memoize there.
	sp *Space
	// spell is the paper spelling followed by "?" ("L1L+?"), rendered once
	// here so Path.String and Path.ExprString are slices of it.
	spell string
	// The shape of every word the expression denotes, which settles most
	// Subsumes queries without the memo (nfa.go). Every canonical segment
	// has Min >= 1, so each word starts with an edge in first's direction
	// and ends with one in last's; its length is exactly minLen when
	// bounded, and at least minLen otherwise.
	minLen      int
	bounded     bool
	first, last Dir
}

// nodeIDs allocates node IDs process-wide, shared by every Space; ID 0 is
// reserved for S. Allocating globally rather than per Space keeps the
// epoch contract's failure mode benign with many Spaces alive: a value
// accidentally mixed across Spaces (or epochs) carries an ID no other live
// node has, so it can at worst miss a cache — its (ID, ID) memo keys and
// fingerprints can never collide with another node's and corrupt a verdict.
var nodeIDs atomic.Uint32

const internShards = 64

type internShard struct {
	mu sync.RWMutex
	m  map[uint64][]*pnode // signature → collision chain
}

// sigSegs computes the FNV-1a signature of a canonical segment slice.
func sigSegs(segs []Seg) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range segs {
		h = (h ^ uint64(s.Dir)) * prime64
		h = (h ^ uint64(s.Min)) * prime64
		if s.Inf {
			h = (h ^ 1) * prime64
		} else {
			h = (h ^ 2) * prime64
		}
	}
	return h
}

func equalSegs(a, b []Seg) bool { return slices.Equal(a, b) }

// intern returns sp's unique node for the given canonical segments, or nil
// for the empty path. The caller must pass segments already in canonical
// form (the output of canon) and must not mutate them afterwards; intern
// copies the slice when it creates a new node, so callers may also pass
// scratch slices.
func (sp *Space) intern(segs []Seg) *pnode {
	if len(segs) == 0 {
		return nil
	}
	sig := sigSegs(segs)
	sh := &sp.shards[sig%internShards]
	sh.mu.RLock()
	for _, n := range sh.m[sig] {
		if equalSegs(n.segs, segs) {
			sh.mu.RUnlock()
			return n
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, n := range sh.m[sig] {
		if equalSegs(n.segs, segs) {
			return n
		}
	}
	id := nodeIDs.Add(1)
	if id == 0 {
		// The allocator deliberately survives Reset (and is shared by every
		// Space) so IDs are never reused; a uint32 wrap would silently break
		// that contract (memo keys and fingerprints of distinct live nodes
		// colliding), so exhaustion fails fast instead. ~4 billion interns
		// across a process lifetime is far beyond any realistic service
		// horizon.
		panic("path: interned node IDs exhausted; restart the process")
	}
	n := &pnode{
		id:      id,
		sig:     sig,
		segs:    append([]Seg(nil), segs...),
		sp:      sp,
		spell:   string(append(appendSegs(nil, segs), '?')),
		bounded: true,
		first:   segs[0].Dir,
		last:    segs[len(segs)-1].Dir,
	}
	for _, s := range segs {
		n.minLen += s.Min
		n.bounded = n.bounded && !s.Inf
	}
	sh.m[sig] = append(sh.m[sig], n)
	sp.interned.Add(1)
	return n
}

// newPathIn canonicalizes and interns the segments into a Path owned by sp.
func newPathIn(sp *Space, segs []Seg, possible bool) Path {
	return Path{node: sp.intern(canon(segs)), possible: possible}
}

// spaceOf picks the owning Space for a derived operation: the first
// operand carrying an interned node decides, and def (normally the process
// default) applies only when every operand is S — in which case the result
// usually needs no interning at all, and callers that can create non-S
// results from S operands use the explicit *Space-receiver forms instead.
func spaceOf(def *Space, ps ...Path) *Space {
	for _, p := range ps {
		if p.node != nil {
			return p.node.sp
		}
	}
	return def
}

// ID returns the interned identity of the path expression, ignoring the
// definiteness flag; S has ID 0. Equal IDs ⇔ equal expressions (IDs are
// never reused across epochs or Spaces).
func (p Path) ID() uint32 {
	if p.node == nil {
		return 0
	}
	return p.node.id
}

// Signature returns the precomputed 64-bit hash of the expression (0 for S).
func (p Path) Signature() uint64 {
	if p.node == nil {
		return 0
	}
	return p.node.sig
}

// InternedCount reports how many distinct non-empty path expressions the
// Space's current epoch holds.
func (sp *Space) InternedCount() int { return int(sp.interned.Load()) }

// InternedCount reports the process-default Space's count (monitoring hook
// for silbench).
func InternedCount() int { return procSpace.InternedCount() }
