// Package distribute implements HPF data distributions. Following the
// paper's simplifying assumption, only the last dimension of an array
// is distributed, blockwise or cyclically, over a linear arrangement of
// processors; all other dimensions are collapsed (whole). The
// distribution defines the *owner* of each element — which, on the
// DSM, is generally a different node from the element's *home*.
package distribute

import "fmt"

// Kind is a distribution format for the last dimension.
type Kind int

const (
	// Collapsed replicates: a single processor owns everything
	// (used for undistributed arrays; owner is processor 0).
	Collapsed Kind = iota
	// Block gives each processor one contiguous chunk of
	// ceil(extent/np) indices.
	Block
	// Cyclic deals indices round-robin.
	Cyclic
	// BlockCyclic deals chunks of K indices round-robin.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Collapsed:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "CYCLIC(K)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is a distribution directive as written in the source.
type Spec struct {
	Kind Kind
	K    int // chunk size for BlockCyclic
}

// Dist binds a Spec to an extent and a processor count.
type Dist struct {
	Spec
	Extent int // last-dimension extent, indices 1..Extent
	NP     int
}

// New validates and builds a distribution. A BlockCyclic chunk longer
// than the extent is clamped to it.
func New(s Spec, extent, np int) Dist {
	if extent < 1 || np < 1 {
		panic(fmt.Sprintf("distribute: bad extent %d / np %d", extent, np))
	}
	if s.Kind == BlockCyclic && s.K < 1 {
		panic("distribute: BlockCyclic needs K >= 1")
	}
	// A chunk as long as the extent already gives processor 0 every
	// index; a longer one would only overflow the ownership arithmetic.
	s.K = min(s.K, extent)
	return Dist{Spec: s, Extent: extent, NP: np}
}

// ChunkSize returns the contiguous chunk length for Block (ceil(E/P)),
// K for BlockCyclic, 1 for Cyclic, and Extent for Collapsed.
func (d Dist) ChunkSize() int {
	switch d.Kind {
	case Block:
		return (d.Extent + d.NP - 1) / d.NP
	case Cyclic:
		return 1
	case BlockCyclic:
		return d.K
	case Collapsed:
		return d.Extent
	default:
		panic("distribute: unknown kind")
	}
}

// Owner returns the processor owning index j (1-based).
func (d Dist) Owner(j int) int {
	if j < 1 || j > d.Extent {
		panic(fmt.Sprintf("distribute: index %d out of 1..%d", j, d.Extent))
	}
	switch d.Kind {
	case Collapsed:
		return 0
	case Block:
		p := (j - 1) / d.ChunkSize()
		if p >= d.NP {
			p = d.NP - 1
		}
		return p
	case Cyclic:
		return (j - 1) % d.NP
	case BlockCyclic:
		return ((j - 1) / d.K) % d.NP
	default:
		panic("distribute: unknown kind")
	}
}

// OwnedRanges returns processor p's owned index ranges of the last
// dimension, in ascending order, as inclusive [lo, hi] pairs. For
// Block this is at most one range; for Cyclic, Extent/NP singletons.
func (d Dist) OwnedRanges(p int) [][2]int { return d.AppendOwnedRanges(nil, p) }

// AppendOwnedRanges appends OwnedRanges(p) to out.
func (d Dist) AppendOwnedRanges(out [][2]int, p int) [][2]int {
	if p < 0 || p >= d.NP {
		panic(fmt.Sprintf("distribute: processor %d out of 0..%d", p, d.NP-1))
	}
	switch d.Kind {
	case Collapsed:
		if p == 0 {
			out = append(out, [2]int{1, d.Extent})
		}
		return out
	case Block:
		cs := d.ChunkSize()
		if lo := p*cs + 1; lo <= d.Extent {
			out = append(out, [2]int{lo, min((p+1)*cs, d.Extent)})
		}
		return out
	case Cyclic, BlockCyclic:
		k := d.ChunkSize()
		for start := p*k + 1; start <= d.Extent; start += d.NP * k {
			out = append(out, [2]int{start, min(start+k-1, d.Extent)})
		}
		return out
	default:
		panic("distribute: unknown kind")
	}
}

func (d Dist) String() string {
	return fmt.Sprintf("%v over %d procs, extent %d", d.Kind, d.NP, d.Extent)
}
