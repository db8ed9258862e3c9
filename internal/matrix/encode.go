package matrix

import (
	"fmt"

	"repro/internal/path"
)

// Content encoding of a matrix, used by the incremental-analysis summary
// store. A converged summary must outlive the path.Space it was computed
// in (session Spaces are epoch-reset between requests), so the encoded
// form stores no interned IDs: handles are their names and every relation
// entry is rendered in the paper's path notation, which Space.ParseSet
// round-trips losslessly (canonical interned segments always have
// Min >= 1, so String and Parse are exact inverses). DecodeIn re-interns
// into an arbitrary target Space and reproduces a matrix that is Equal to
// — and, within one Space, fingerprint-identical to — the original.

// EncodedHandle is one live handle with its attribute record, in the
// matrix's insertion order (insertion order is part of the analysis
// identity: Handles() feeds deterministic iteration throughout the
// engine, so decode must reproduce it exactly).
type EncodedHandle struct {
	Handle Handle   `json:"handle"`
	Nil    Nilness  `json:"nil"`
	Indeg  Indegree `json:"indeg"`
}

// EncodedCell is one non-empty relation entry p[row, col] rendered in
// path notation.
type EncodedCell struct {
	Row   Handle `json:"row"`
	Col   Handle `json:"col"`
	Paths string `json:"paths"`
}

// Encoded is the Space-free content form of a Matrix.
type Encoded struct {
	Sticky  Shape           `json:"sticky"`
	Handles []EncodedHandle `json:"handles"`
	Cells   []EncodedCell   `json:"cells,omitempty"`
}

// SizeBytes approximates the in-memory footprint of the encoded form,
// for summary-store accounting.
func (e *Encoded) SizeBytes() int {
	n := 16 // sticky + slice headers, roughly
	for _, h := range e.Handles {
		n += len(h.Handle) + 4
	}
	for _, c := range e.Cells {
		n += len(c.Row) + len(c.Col) + len(c.Paths) + 8
	}
	return n
}

// Encode renders the matrix into its Space-free content form. Handle
// order follows insertion order; cells follow the (row, col) order of the
// handle list, so the encoding of a given matrix is deterministic.
func (m *Matrix) Encode() Encoded {
	e := Encoded{Sticky: m.sticky}
	e.Handles = make([]EncodedHandle, 0, len(m.order))
	for i, h := range m.order {
		a := m.slots[i].a
		e.Handles = append(e.Handles, EncodedHandle{Handle: h, Nil: a.Nil, Indeg: a.Indeg})
	}
	var buf []byte
	for i, r := range m.order {
		for j, c := range m.order {
			if s := m.at(m.key(i, j)); !s.IsEmpty() {
				buf = s.AppendText(buf[:0])
				e.Cells = append(e.Cells, EncodedCell{Row: r, Col: c, Paths: string(buf)})
			}
		}
	}
	return e
}

// DecodeIn rebuilds a matrix from its content form, interning every path
// into sp. The result is structurally Equal to the matrix Encode was
// called on, with the same handle insertion order and sticky shape.
func DecodeIn(sp *Space, e Encoded) (*Matrix, error) {
	m := NewIn(sp)
	for _, h := range e.Handles {
		if m.Has(h.Handle) {
			return nil, fmt.Errorf("matrix: decode: duplicate handle %q", h.Handle)
		}
		m.Add(h.Handle, Attr{Nil: h.Nil, Indeg: h.Indeg})
		// Add seeds the S diagonal for non-nil handles; the true diagonal
		// arrives with the cells, so clear it to match encode exactly.
		m.Put(h.Handle, h.Handle, path.EmptySet())
	}
	for _, c := range e.Cells {
		if !m.Has(c.Row) || !m.Has(c.Col) {
			return nil, fmt.Errorf("matrix: decode: cell %q>%q names unknown handle", c.Row, c.Col)
		}
		s, err := sp.Paths().ParseSet(c.Paths)
		if err != nil {
			return nil, fmt.Errorf("matrix: decode cell %q>%q: %v", c.Row, c.Col, err)
		}
		m.Put(c.Row, c.Col, s)
	}
	m.setSticky(e.Sticky)
	return m, nil
}
