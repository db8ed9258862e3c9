package matrix

import (
	"sync"

	"repro/internal/path"
)

// Handle interning: every handle name used by any matrix of one Space is
// mapped once to a small ID, and matrix entries are keyed by packed ID
// pairs instead of string pairs. A matrix resolves a name here only when
// the name first enters it (Add); the ID then lives in the handle's slot,
// and Copy, Merge and Project carry it over, so Get, Put, Equal and the
// merge-join work on the matrix's own slices without consulting the
// table. IDs are stable across the matrices of one Space, so packed keys
// of two matrices compare directly. The table is mutex-guarded because the
// concurrent analysis fixpoint adds handles from several workers.

// A Space scopes the handle interner to one path.Space: matrices built in
// the Space intern their handles here and their path sets there, so a
// long-lived service can give every session worker a private matrix Space
// and keep the whole analysis cache hierarchy — paths, memo verdicts, and
// handles — worker-local.
//
// The handle table is epoch-scoped alongside its path.Space's tables: an
// OnReset hook registered at construction drops the handle universe
// whenever the path Space resets, so one Reset call bounds the whole
// hierarchy between batches. The epoch contract of path.Space applies —
// matrices built before a Reset must not be used after it. Because IDs are
// never reused, a stale matrix keeps the benign failure mode the contract
// promises: its packed entry keys can never collide with fresh IDs and
// silently read another handle's entry.
type Space struct {
	paths *path.Space

	mu  sync.RWMutex
	ids map[Handle]uint32
	// base is the first ID of the current epoch; like path node IDs,
	// handle IDs are monotonic and never reused across epochs.
	base uint32
}

// NewSpace builds a matrix Space bound to ps, tying its handle table to
// ps's epoch lifecycle.
func NewSpace(ps *path.Space) *Space {
	sp := &Space{paths: ps, ids: make(map[Handle]uint32)}
	ps.OnReset(func() {
		sp.mu.Lock()
		sp.base += uint32(len(sp.ids))
		sp.ids = make(map[Handle]uint32)
		sp.mu.Unlock()
	})
	return sp
}

// Paths returns the path.Space this matrix Space is bound to.
func (sp *Space) Paths() *path.Space { return sp.paths }

var (
	defaultSpace     *Space
	defaultSpaceOnce sync.Once
)

// DefaultSpace returns the matrix Space bound to path.DefaultSpace() — the
// convenience for one-shot CLI runs and tests; long-lived services
// construct their own via NewSpace.
func DefaultSpace() *Space {
	defaultSpaceOnce.Do(func() { defaultSpace = NewSpace(path.DefaultSpace()) })
	return defaultSpace
}

// InternedHandles reports how many distinct handle names the Space's
// current epoch has interned.
func (sp *Space) InternedHandles() int {
	sp.mu.RLock()
	n := len(sp.ids)
	sp.mu.RUnlock()
	return n
}

// InternedHandles reports the default Space's count (monitoring hook for
// silbench).
func InternedHandles() int { return DefaultSpace().InternedHandles() }

// idOf interns h and returns its stable ID within the Space.
func (sp *Space) idOf(h Handle) uint32 {
	sp.mu.RLock()
	id, ok := sp.ids[h]
	sp.mu.RUnlock()
	if ok {
		return id
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if id, ok := sp.ids[h]; ok {
		return id
	}
	id = sp.base + uint32(len(sp.ids))
	if id < sp.base {
		// Monotonic-ID exhaustion: a wrap would let a stale matrix's packed
		// keys collide with fresh handles, so fail fast (cf. path.intern).
		panic("matrix: interned handle IDs exhausted; restart the process")
	}
	sp.ids[h] = id
	return id
}
