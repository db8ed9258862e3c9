package matrix

import (
	"fmt"

	"repro/internal/path"
)

// Per-matrix 128-bit fingerprints. Every component of the convergence
// identity — the sticky shape, each (handle, attribute) record, and each
// (row, col) → path-set entry — contributes a two-lane hash; lanes combine
// by modular addition, so the fingerprint is independent of handle
// insertion order and is maintained incrementally: every
// mutation subtracts the old contribution and adds the new one instead of
// re-rendering the matrix. This replaces the sorted-string Matrix.Key of
// the §5.2 summary memoization with a fixed-size comparable value.
//
// Fingerprint equality is a filter, not an identity: Equal uses it only to
// reject fast, and the analysis summary memo keys by Fp but verifies
// structurally on hit (the collision fallback). Fingerprints incorporate
// interned path and handle IDs, so they are only comparable within one
// path.Space epoch.

// Fp is a 128-bit matrix fingerprint, comparable and usable as a map key.
type Fp struct{ Hi, Lo uint64 }

// String renders the fingerprint as 32 hex digits (debugging/test output).
func (f Fp) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

const (
	fpStickySeed uint64 = 0x8ebc6af09c88c6e3
	fpAttrSeed   uint64 = 0x589965cc75374cc3
	fpEntrySeed  uint64 = 0x1d8e4e27c47d124f
)

func fpLanes(x, seed uint64) Fp {
	return Fp{path.Mix64(x + seed), path.Mix64(path.Mix64(x) ^ seed)}
}

// stickyFP is the contribution of the sticky shape verdict.
func stickyFP(s Shape) Fp { return fpLanes(uint64(s)+1, fpStickySeed) }

// attrFP is the contribution of one live handle's attribute record, keyed
// by the handle's interned ID (its slot ID).
func attrFP(id uint32, a Attr) Fp {
	x := uint64(id)<<16 | uint64(a.Nil)<<8 | uint64(a.Indeg)
	return fpLanes(x, fpAttrSeed)
}

// entryFP is the contribution of one non-empty matrix entry: the packed
// handle-pair key mixed with the set's own 128-bit fingerprint.
func entryFP(k entryKey, s path.Set) Fp {
	f := s.Fingerprint()
	return Fp{
		path.Mix64(uint64(k) + fpEntrySeed + f[0]),
		path.Mix64(path.Mix64(uint64(k)) ^ fpEntrySeed ^ f[1]),
	}
}

func (m *Matrix) fpAdd(d Fp) { m.fp.Hi += d.Hi; m.fp.Lo += d.Lo }
func (m *Matrix) fpSub(d Fp) { m.fp.Hi -= d.Hi; m.fp.Lo -= d.Lo }

// recomputeFP derives the fingerprint from scratch; it is the reference
// the incremental maintenance is property-tested against.
func (m *Matrix) recomputeFP() Fp {
	fp := stickyFP(m.sticky)
	for _, sl := range m.slots {
		f := attrFP(sl.id, sl.a)
		fp.Hi += f.Hi
		fp.Lo += f.Lo
	}
	for _, c := range m.cells {
		f := entryFP(c.k, c.s)
		fp.Hi += f.Hi
		fp.Lo += f.Lo
	}
	return fp
}

// Fingerprint returns the matrix's order-independent 128-bit fingerprint:
// equal matrices (same handles, attributes, entries, and sticky shape —
// exactly the Equal relation) always share a fingerprint, distinct ones
// collide with probability ~2^-128. It replaces the former string Key() as
// the §5.2 summary-memoization key; consumers must keep an Equal fallback
// for collisions and must not compare fingerprints across Space epochs.
func (m *Matrix) Fingerprint() Fp { return m.fp }
