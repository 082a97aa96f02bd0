package compiler

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"hpfdsm/internal/ir"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

// Transfer is one producer->consumer data movement: an array section
// whose block-aligned interior goes under compiler control. Elements
// outside Blocks (the section's edges within partially covered
// coherence blocks) remain with the default protocol.
type Transfer struct {
	Array     *ir.Array
	Sender    int
	Receiver  int
	Sec       sections.Section
	Blocks    []protocol.BlockRun
	NumBlocks int
	EdgeBytes int // section bytes left to the default protocol
	// EdgeBlocks are the coherence blocks the section touches but does
	// not fully cover: they stay with the default protocol, and are
	// the targets of the advisory edge-prefetch extension.
	EdgeBlocks []protocol.BlockRun
	Redundant  bool
	// Key identifies the transfer's data content (array section ->
	// receiver) for PRE's delivered set (plan.go) and the verifier's
	// liveness map; precomputed here so planning an instance builds
	// nothing. Schedules are memoized, so the cost is paid once per
	// valuation.
	Key string
	// pairBytes and pairMsgs are the phase's compiler-controlled traffic
	// from Sender to Receiver, summed over the transfer's list (the
	// schedule's reads, or its writes) by buildSchedule: bytes of
	// block-aligned interior, and the bulk wire messages they take (one
	// per contiguous block run). Mode reads them.
	pairBytes, pairMsgs int
}

func (t Transfer) String() string {
	return fmt.Sprintf("%s%v %d->%d (%d blocks, %dB edge)",
		t.Array.Name, t.Sec, t.Sender, t.Receiver, t.NumBlocks, t.EdgeBytes)
}

// Schedule is a loop's instantiated communication: Reads execute
// before the loop (owner sends to readers), Writes after it (writers
// flush to owners).
type Schedule struct {
	Reads  []Transfer
	Writes []Transfer

	np int // the machine's node count
	// The per-node indexes (view.go), each built on first use: a
	// schedule the front end only inspects pays two nil words for them.
	live, all atomic.Pointer[nodeIndex]
}

// Mode picks the transfer's transport, given the optimization level and
// the machine's block size and aggregation threshold (bytes), from the
// phase's traffic between its sender and receiver. Below OptBulk every
// block travels alone (the paper's unoptimized send). At OptBulk and
// above, a pair whose phase traffic reaches the threshold AND spans at
// least two wire messages aggregates through the coalescing scheduler
// — aggregation only ever wins by merging messages, so a pair that
// already collapses to one bulk message is sent as exactly that
// message; a multi-message pair below the threshold uses per-transfer
// bulk messages; a single-block pair stays eager — the bulk path's
// chunking would produce the identical wire message.
func (t *Transfer) Mode(level Level, blockSize, threshold int) protocol.SendMode {
	switch {
	case level < OptBulk || t.pairBytes <= blockSize:
		return protocol.SendEager
	case t.pairMsgs >= 2 && t.pairBytes >= threshold:
		return protocol.SendAggregate
	default:
		return protocol.SendBulk
	}
}

// Schedule instantiates (and memoizes) the communication schedule of a
// loop rule under a symbol environment. key identifies the loop.
func (a *Analysis) Schedule(key any, rule *LoopRule, env map[string]int) *Schedule {
	ck := envKey(key, 1, rule.UsedSym, env)
	a.mu.RLock()
	s, ok := a.schedCache[ck]
	a.mu.RUnlock()
	if ok {
		return s
	}
	s = a.buildSchedule(key, rule, env)
	a.mu.Lock()
	if s2, ok := a.schedCache[ck]; ok {
		s = s2
	} else {
		a.schedCache[ck] = s
	}
	a.mu.Unlock()
	return s
}

// schedBuild is the scratch a schedule is gathered in, to be copied into
// one exactly sized slab per kind of list, nil when empty. Until then only
// the lengths of a transfer's lists count: they point into scratch that moves.
type schedBuild struct {
	ts     []Transfer // the reads, then the writes
	dims   []sections.Dim
	runs   []protocol.BlockRun // each transfer's interior, then its edges
	keys   []byte
	keyEnd []int32 // 0, then per transfer where its key ends in keys

	in, edges []protocol.BlockRun // one section's Cover
}

// scratch is the one schedBuild, which builds take turns on: a
// sync.Pool's would be regrown after collections, at the cost in memory
// of the schedules it builds.
var scratch struct {
	sync.Mutex
	schedBuild
}

func (a *Analysis) buildSchedule(key any, rule *LoopRule, env map[string]int) *Schedule {
	pt := a.Partition(key, rule, env)
	ranges := a.VarRanges(rule, env)
	scratch.Lock()
	defer scratch.Unlock()
	b := &scratch.schedBuild
	b.ts, b.dims, b.runs, b.keys, b.keyEnd = b.ts[:0], b.dims[:0], b.runs[:0], b.keys[:0], append(b.keyEnd[:0], 0)
	for _, rr := range rule.Reads {
		a.refTransfers(b, rr, pt, ranges, env)
	}
	nr := len(b.ts)
	for _, rr := range rule.Writes {
		a.refTransfers(b, rr, pt, ranges, env)
	}
	ts, dims, runs, keys := append([]Transfer(nil), b.ts...), append([]sections.Dim(nil), b.dims...), append([]protocol.BlockRun(nil), b.runs...), string(b.keys)
	for i := range ts {
		t := &ts[i]
		t.Sec.Dims, dims = dims[:len(t.Sec.Dims):len(t.Sec.Dims)], dims[len(t.Sec.Dims):]
		t.Blocks, runs = runs[:len(t.Blocks):len(t.Blocks)], runs[len(t.Blocks):]
		t.EdgeBlocks, runs = runs[:len(t.EdgeBlocks):len(t.EdgeBlocks)], runs[len(t.EdgeBlocks):]
		t.Key = keys[b.keyEnd[i]:b.keyEnd[i+1]]
	}
	s := &Schedule{np: a.NP, Reads: ts[:nr:nr], Writes: ts[nr:]}
	a.sumPairs(s.Reads)
	a.sumPairs(s.Writes)
	return s
}

// sumPairs gives every transfer of ts its pair's totals over ts. Sorted
// by (sender, receiver), the list's indices put each pair's transfers
// side by side, so the sums take memory in the transfers, not in the
// machine's size. Schedules are memoized, so the cost is paid once per
// (loop, valuation).
func (a *Analysis) sumPairs(ts []Transfer) {
	byPair := make([]int32, len(ts))
	for i := range byPair {
		byPair[i] = int32(i)
	}
	slices.SortFunc(byPair, func(i, j int32) int {
		return cmp.Or(ts[i].Sender-ts[j].Sender, ts[i].Receiver-ts[j].Receiver)
	})
	for lo := 0; lo < len(byPair); {
		s, r := ts[byPair[lo]].Sender, ts[byPair[lo]].Receiver
		hi, bytes, msgs := lo, 0, 0
		for ; hi < len(byPair) && ts[byPair[hi]].Sender == s && ts[byPair[hi]].Receiver == r; hi++ {
			t := &ts[byPair[hi]]
			bytes += t.NumBlocks * a.BlockSize
			msgs += len(t.Blocks)
		}
		for _, i := range byPair[lo:hi] {
			ts[i].pairBytes, ts[i].pairMsgs = bytes, msgs
		}
		lo = hi
	}
}

// VarRanges builds the value ranges of all loop and inner-reduction
// variables of a rule under a symbol environment — the bounding
// information row-section computation uses, also consumed by the static
// verifier's race analysis.
func (a *Analysis) VarRanges(rule *LoopRule, env map[string]int) map[string][2]int {
	ranges := map[string][2]int{}
	for _, ix := range rule.Indexes {
		ranges[ix.Var] = [2]int{ix.Lo.Eval(env), ix.Hi.Eval(env)}
	}
	for v, rg := range rule.inner {
		lo, _ := EvalRange(rg.lo, ranges, env)
		_, hi := EvalRange(rg.hi, ranges, env)
		ranges[v] = [2]int{lo, hi}
	}
	return ranges
}

// EvalRange bounds an affine expression over variable ranges: variables
// in ranges contribute their interval, others are looked up in env.
func EvalRange(e ir.AffExpr, ranges map[string][2]int, env map[string]int) (int, int) {
	lo, hi := e.Const, e.Const
	for _, t := range e.Terms {
		if r, ok := ranges[t.Var]; ok {
			if t.Coef > 0 {
				lo += t.Coef * r[0]
				hi += t.Coef * r[1]
			} else {
				lo += t.Coef * r[1]
				hi += t.Coef * r[0]
			}
			continue
		}
		v, ok := env[t.Var]
		if !ok {
			panic(fmt.Sprintf("compiler: unbound variable %q in %v", t.Var, e))
		}
		lo += t.Coef * v
		hi += t.Coef * v
	}
	return lo, hi
}

// refTransfers instantiates one reference rule into concrete transfers,
// gathered into b. ranges are the rule's VarRanges under env.
func (a *Analysis) refTransfers(b *schedBuild, rr *RefRule, pt *Partition, ranges map[string][2]int, env map[string]int) {
	arr := rr.Ref.Array
	d := a.dists[arr]

	// Row section: dimensions 0..rank-2 bounded over the iteration
	// space and clipped to the array extents.
	rows := make([]sections.Dim, arr.Rank()-1, arr.Rank())
	for dim := 0; dim < arr.Rank()-1; dim++ {
		lo, hi := EvalRange(rr.Ref.Subs[dim], ranges, env)
		if lo < 1 {
			lo = 1
		}
		if hi > arr.Extents[dim] {
			hi = arr.Extents[dim]
		}
		if lo > hi {
			return
		}
		rows[dim] = sections.Dim{Lo: lo, Hi: hi}
	}

	emit := func(from, to, t0, t1 int) {
		sec := sections.Section{Dims: append(rows, sections.Dim{Lo: t0, Hi: t1})}
		a.makeTransfer(b, arr, from, to, sec, rr.Redundant)
	}

	// groupByOwner walks columns [t0,t1], grouping runs with the same
	// owner, and emits a transfer for each run not owned by p.
	groupByOwner := func(p, t0, t1 int, pIsReader bool) {
		if t0 < 1 {
			t0 = 1
		}
		if t1 > d.Extent {
			t1 = d.Extent
		}
		for t := t0; t <= t1; {
			o := d.Owner(t)
			end := t
			for end+1 <= t1 && d.Owner(end+1) == o {
				end++
			}
			if o != p {
				if pIsReader {
					emit(o, p, t, end)
				} else {
					emit(p, o, t, end)
				}
			}
			t = end + 1
		}
	}

	switch rr.Kind {
	case KindShift:
		// A shift reference implies a distributed loop variable, so the
		// partition is never single-processor here.
		c := rr.Rest.Eval(env)
		for p := 0; p < a.NP; p++ {
			for _, jr := range pt.Ranges[p] {
				groupByOwner(p, jr[0]+c, jr[1]+c, !rr.IsWrite)
			}
		}
	case KindFixed:
		t := rr.Rest.Eval(env)
		if t < 1 || t > d.Extent {
			return
		}
		owner := d.Owner(t)
		for p := 0; p < a.NP; p++ {
			if !pt.Executes(p) || p == owner {
				continue
			}
			if rr.IsWrite {
				emit(p, owner, t, t)
			} else {
				emit(owner, p, t, t)
			}
		}
	case KindGather:
		rg, ok := ranges[rr.SweepVar]
		if !ok {
			panic(fmt.Sprintf("compiler: gather variable %q has no range", rr.SweepVar))
		}
		c := rr.Rest.Eval(env)
		for p := 0; p < a.NP; p++ {
			if !pt.Executes(p) {
				continue
			}
			groupByOwner(p, rg[0]+c, rg[1]+c, true)
		}
	default:
		panic("compiler: transfer for local reference")
	}
}

// makeTransfer linearizes a section and computes its block-aligned
// interior (the shmem_limits shrink), gathering the transfer into b.
func (a *Analysis) makeTransfer(b *schedBuild, arr *ir.Array, from, to int, sec sections.Section, redundant bool) {
	at := len(b.dims)
	b.dims = append(b.dims, sec.Dims...)
	blocks, edges, total := a.Layouts[arr].Cover(sec, a.BlockSize, b.in, b.edges)
	b.in, b.edges = blocks, edges
	b.runs = append(append(b.runs, blocks...), edges...)
	b.keys = appendTransferKey(b.keys, arr.Name, sec, to)
	b.keyEnd = append(b.keyEnd, int32(len(b.keys)))
	numBlocks := sections.CountBlocks(blocks)
	b.ts = append(b.ts, Transfer{
		Array:      arr,
		Sender:     from,
		Receiver:   to,
		Sec:        sections.Section{Dims: b.dims[at:]},
		Blocks:     blocks,
		NumBlocks:  numBlocks,
		EdgeBytes:  total - numBlocks*a.BlockSize,
		EdgeBlocks: edges,
		Redundant:  redundant,
	})
}

// appendTransferKey appends a transfer's data content,
// array|section|>receiver, to b as "A|(1:64,3:5)|>2": array names are
// identifiers, so the text is injective over the three.
func appendTransferKey(b []byte, array string, sec sections.Section, to int) []byte {
	b = append(append(b, array...), "|("...)
	for i, d := range sec.Dims {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(strconv.AppendInt(b, int64(d.Lo), 10), ':')
		b = strconv.AppendInt(b, int64(d.Hi), 10)
	}
	return strconv.AppendInt(append(b, ")|>"...), int64(to), 10)
}
