// Package sections implements the array-section algebra the compiler
// uses to compute access sets: rectangular sections with inclusive
// per-dimension bounds, intersection, linearization of sections to
// contiguous address runs under a column-major layout,
// and the block-alignment shrink at the heart of the paper's
// shmem_limits call (Section 4.2: given a candidate section, select the
// largest sub-section falling on whole coherence blocks and leave the
// boundary elements to the default protocol).
//
// The paper used the Omega library for this; it notes the sections it
// optimizes are representable as regular section descriptors, which is
// what this package provides.
package sections

import (
	"fmt"
	"strings"
)

// Dim is one dimension's inclusive index range [Lo, Hi].
type Dim struct {
	Lo, Hi int
}

// Empty reports whether the range contains no indices.
func (d Dim) Empty() bool { return d.Lo > d.Hi }

// Count returns the number of indices in the range.
func (d Dim) Count() int {
	if d.Empty() {
		return 0
	}
	return d.Hi - d.Lo + 1
}

// Section is a dense rectangular array section: the cross product of
// its dimensions' ranges. A section with no dimensions is a scalar
// (one point).
type Section struct {
	Dims []Dim
}

// Rect builds a section from (lo, hi) pairs.
func Rect(bounds ...int) Section {
	if len(bounds)%2 != 0 {
		panic("sections: Rect needs lo,hi pairs")
	}
	s := Section{}
	for i := 0; i < len(bounds); i += 2 {
		s.Dims = append(s.Dims, Dim{bounds[i], bounds[i+1]})
	}
	return s
}

// Rank returns the number of dimensions.
func (s Section) Rank() int { return len(s.Dims) }

// Empty reports whether the section contains no elements.
func (s Section) Empty() bool {
	for _, d := range s.Dims {
		if d.Empty() {
			return true
		}
	}
	return false
}

// Count returns the number of elements.
func (s Section) Count() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.Count()
	}
	return n
}

// Contains reports whether the point is inside the section.
func (s Section) Contains(idx ...int) bool {
	if len(idx) != len(s.Dims) {
		panic(fmt.Sprintf("sections: Contains rank mismatch: %d vs %d", len(idx), len(s.Dims)))
	}
	for i, d := range s.Dims {
		if idx[i] < d.Lo || idx[i] > d.Hi {
			return false
		}
	}
	return true
}

// Equal reports structural equality (same rank, same bounds), treating
// all empty sections of equal rank as equal.
func (s Section) Equal(o Section) bool {
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	if s.Empty() && o.Empty() {
		return true
	}
	for i := range s.Dims {
		if s.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

func (s Section) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", d.Lo, d.Hi)
	}
	b.WriteByte(')')
	return b.String()
}

// Intersect returns the intersection of two same-rank sections.
func Intersect(a, b Section) Section {
	if len(a.Dims) != len(b.Dims) {
		panic("sections: Intersect rank mismatch")
	}
	out := Section{Dims: make([]Dim, len(a.Dims))}
	for i := range a.Dims {
		lo := a.Dims[i].Lo
		if b.Dims[i].Lo > lo {
			lo = b.Dims[i].Lo
		}
		hi := a.Dims[i].Hi
		if b.Dims[i].Hi < hi {
			hi = b.Dims[i].Hi
		}
		out.Dims[i] = Dim{lo, hi}
	}
	return out
}
