// Package compiler implements the paper's communication analysis: from
// a program's data distributions and owner-computes work partition it
// derives, for every parallel loop, each processor's non-owner-read and
// non-owner-write array sections, matches producers with consumers,
// shrinks the sections to whole coherence blocks (shmem_limits), and
// produces the communication schedules the runtime turns into
// mk_writable / implicit_writable / send / ready_to_recv /
// implicit_invalidate call sequences.
//
// Access sets are kept parametric in the program's symbols (outer
// sequential loop variables): analysis produces rules that are
// instantiated — and memoized — per symbol valuation at run time,
// mirroring the paper's use of Omega-generated code fragments invoked
// with symbolic variable values.
package compiler

import (
	"fmt"
	"sync"

	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sections"
)

// Level is the cumulative optimization level.
type Level int

// Optimization levels, each including the previous.
const (
	// OptNone runs the default coherence protocol only.
	OptNone Level = iota
	// OptBase adds compiler-orchestrated sender-initiated transfers
	// (Section 4.2), one message per block.
	OptBase
	// OptBulk coalesces contiguous blocks into large payloads.
	OptBulk
	// OptRTElim removes redundant run-time calls and barriers under the
	// whole-program assumptions of Section 4.3.
	OptRTElim
	// OptPRE additionally eliminates redundant communication: a
	// transfer whose data cannot have changed since an earlier
	// identical transfer is skipped (the paper's planned PRE
	// extension).
	OptPRE
)

func (l Level) String() string {
	switch l {
	case OptNone:
		return "none"
	case OptBase:
		return "base"
	case OptBulk:
		return "bulk"
	case OptRTElim:
		return "rtelim"
	case OptPRE:
		return "pre"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel converts a level name to a Level.
func ParseLevel(s string) (Level, error) {
	for _, l := range []Level{OptNone, OptBase, OptBulk, OptRTElim, OptPRE} {
		if l.String() == s {
			return l, nil
		}
	}
	return OptNone, fmt.Errorf("compiler: unknown optimization level %q", s)
}

// Analysis holds the compiled communication rules for one program on
// one machine configuration.
type Analysis struct {
	Prog      *ir.Program
	NP        int
	Layouts   map[*ir.Array]sections.Layout
	BlockSize int

	dists map[*ir.Array]distribute.Dist
	loops map[*ir.ParLoop]*LoopRule
	reds  map[*ir.Reduce]*LoopRule

	// mu guards schedCache and partCache: an Analysis may be shared by
	// concurrent sweep workers (see Cached). Rules, distributions, and
	// layouts are immutable after New.
	mu         sync.RWMutex
	schedCache map[schedKey]*Schedule
	partCache  map[schedKey]*Partition
	shared     map[*LoopRule]bool // rules reachable from >1 call site
}

// schedKey memoizes per-loop instantiations. The valuation of the
// rule's used symbols is inlined as a fixed array for the common case
// (no allocation, comparable key); rules with more symbols spill to a
// formatted string.
type schedKey struct {
	loop any
	kind uint8 // 0 = partition, 1 = schedule
	n    uint8
	vals [8]int
	sig  string // only when n > 8
}

// New analyzes prog for an np-processor machine. Layouts maps each
// array to its shared-segment placement; blockSize is the coherence
// unit. It returns an error if the program falls outside the supported
// forms (see Validate).
func New(prog *ir.Program, np int, layouts map[*ir.Array]sections.Layout, blockSize int) (*Analysis, error) {
	a := &Analysis{
		Prog:       prog,
		NP:         np,
		Layouts:    layouts,
		BlockSize:  blockSize,
		dists:      make(map[*ir.Array]distribute.Dist),
		loops:      make(map[*ir.ParLoop]*LoopRule),
		reds:       make(map[*ir.Reduce]*LoopRule),
		schedCache: make(map[schedKey]*Schedule),
		partCache:  make(map[schedKey]*Partition),
	}
	for _, arr := range prog.Arrays {
		a.dists[arr] = distribute.New(arr.Dist, arr.LastExtent(), np)
		if _, ok := layouts[arr]; !ok {
			return nil, fmt.Errorf("compiler: array %s has no layout", arr.Name)
		}
	}
	if err := a.buildRules(); err != nil {
		return nil, err
	}
	a.markRedundant()
	return a, nil
}

// Dist returns the distribution of an array.
func (a *Analysis) Dist(arr *ir.Array) distribute.Dist { return a.dists[arr] }

// analysisKey identifies one compiled configuration for the cross-run
// cache: program identity, machine shape, and a fingerprint of the
// array placement (layouts are derived deterministically from the
// machine configuration, but the fingerprint guards against a caller
// with a different allocation policy).
type analysisKey struct {
	prog      *ir.Program
	np        int
	blockSize int
	layoutSig uint64
}

var (
	cachedMu sync.Mutex
	cached   = map[analysisKey]*Analysis{}
)

// Cached returns a memoized Analysis for (prog, np, layouts,
// blockSize), building one on first use. Programs obtained from the
// same source and parameters share a pointer (see apps.Program), so
// repeated runs — and every variant of a sweep at the same node count —
// reuse one Analysis and its instantiation caches: section arithmetic
// for a given (loop, valuation) runs once per process, not once per
// run. The returned Analysis is safe for concurrent use.
func Cached(prog *ir.Program, np int, layouts map[*ir.Array]sections.Layout, blockSize int) (*Analysis, error) {
	k := analysisKey{prog: prog, np: np, blockSize: blockSize, layoutSig: layoutSig(prog, layouts)}
	cachedMu.Lock()
	a, ok := cached[k]
	cachedMu.Unlock()
	if ok {
		return a, nil
	}
	a, err := New(prog, np, layouts, blockSize)
	if err != nil {
		return nil, err
	}
	cachedMu.Lock()
	if a2, ok := cached[k]; ok {
		a = a2 // a concurrent builder won; converge on one instance
	} else {
		cached[k] = a
	}
	cachedMu.Unlock()
	return a, nil
}

// Place lays prog's arrays out in a fresh shared segment for machine mc
// (which must be valid): declaration order, each page-aligned, 8-byte
// elements. The runtime, the verifier and the compiler driver all
// analyse the program against this one placement.
func Place(prog *ir.Program, mc config.Machine) (*memory.Space, map[*ir.Array]sections.Layout) {
	sp := memory.NewSpace(mc)
	layouts := make(map[*ir.Array]sections.Layout, len(prog.Arrays))
	for _, arr := range prog.Arrays {
		layouts[arr] = sections.Layout{Base: sp.Alloc(arr.Name, arr.Elems()*8), Extents: arr.Extents, ElemSize: 8}
	}
	return sp, layouts
}

// layoutSig is an FNV-style fold of the arrays' placements.
func layoutSig(prog *ir.Program, layouts map[*ir.Array]sections.Layout) uint64 {
	var h uint64 = 1469598103934665603
	for _, arr := range prog.Arrays {
		l := layouts[arr]
		h = h*1099511628211 ^ uint64(l.Base)
		h = h*1099511628211 ^ uint64(l.ElemSize)
	}
	return h
}

// LoopRule is the compiled form of one parallel loop (or global
// reduction): its anchor reference (the owner-computes pivot), the
// distributed loop variable (if any), and the per-reference
// communication rules.
type LoopRule struct {
	Anchor  ir.ArrayRef
	DistVar string // loop variable steering the work partition; "" if none
	Indexes []ir.Index
	Reads   []*RefRule // non-owner reads: producer -> consumer before the loop
	Writes  []*RefRule // non-owner writes: writer -> owner after the loop
	UsedSym []string   // symbols the schedule depends on (memoization key)

	// IndirectArrays lists arrays read through irregular (indirect or
	// non-affine) subscripts in this loop: unanalyzable, always served
	// by the default coherence protocol.
	IndirectArrays []*ir.Array

	anchorRest ir.AffExpr            // anchor's last subscript minus DistVar
	inner      map[string]innerRange // inner-reduction variable bounds
}

// RefRule describes the communication for one array reference.
type RefRule struct {
	Ref  ir.ArrayRef
	Kind RefKind
	// Rest is the reference's last subscript minus its swept loop
	// variable: the (possibly symbolic) shift.
	Rest ir.AffExpr
	// SweepVar is the loop (or inner-reduction) variable in the last
	// subscript, for KindShift and KindGather.
	SweepVar string
	IsWrite  bool
	// Redundant is set by the PRE pass: the transfer duplicates an
	// earlier one with no intervening write to the array.
	Redundant bool
}

// RefKind classifies how a reference's last subscript relates to the
// loop's work partition.
type RefKind int

// Reference kinds.
const (
	// KindLocal: same distribution alignment, no communication.
	KindLocal RefKind = iota
	// KindShift: lastSub = distVar + c; boundary exchange.
	KindShift
	// KindFixed: lastSub has no loop variable; one owner broadcasts to
	// all executing processors (e.g. lu's pivot column).
	KindFixed
	// KindGather: lastSub sweeps a non-distributed loop variable; every
	// executing processor reads the whole swept range (e.g. cg's
	// vector gather).
	KindGather
)

func (k RefKind) String() string {
	return [...]string{"local", "shift", "fixed", "gather"}[k]
}
