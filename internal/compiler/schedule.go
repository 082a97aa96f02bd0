package compiler

import (
	"fmt"
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
	// receiver) for PRE's delivered set (plan.go); precomputed here so
	// planning an instance formats nothing. Schedules are memoized, so
	// the formatting cost is paid once per valuation.
	Key string
}

func (t Transfer) String() string {
	return fmt.Sprintf("%s%v %d->%d (%d blocks, %dB edge)",
		t.Array.Name, t.Sec, t.Sender, t.Receiver, t.NumBlocks, t.EdgeBytes)
}

// Schedule is a loop's instantiated communication: Reads execute
// before the loop (owner sends to readers), Writes after it (writers
// flush to owners). ReadBytes and WriteBytes are the phase's expected
// compiler-controlled traffic matrices — [sender][receiver] bytes,
// summed over every transfer's block-aligned interior — computed from
// the same section arithmetic that produced the transfers; ReadMsgs
// and WriteMsgs count the bulk wire messages that traffic would take
// (one per contiguous block run). The runtime consults them (via Mode)
// to pick each destination's transport: a pair whose phase collapses
// to one wire message gains nothing from aggregation machinery, while
// a pair whose epoch total clears the machine's threshold amortizes
// one carrier header over many segments.
type Schedule struct {
	Reads  []Transfer
	Writes []Transfer

	ReadBytes  [][]int64
	WriteBytes [][]int64
	ReadMsgs   [][]int64
	WriteMsgs  [][]int64

	// The per-node indexes (view.go), each built on first use: a
	// schedule the front end only inspects pays two nil words for them.
	live, all atomic.Pointer[nodeIndex]
}

// Mode picks the transport for one transfer of this schedule, given
// the optimization level and the machine's aggregation threshold
// (bytes) and block size. Below OptBulk every block travels alone
// (the paper's unoptimized send). At OptBulk and above, a (sender,
// receiver) pair whose expected epoch traffic reaches the threshold
// AND spans at least two wire messages aggregates through the
// coalescing scheduler — aggregation only ever wins by merging
// messages, so a pair that already collapses to one bulk message is
// sent as exactly that message; a multi-message pair below the
// threshold uses per-transfer bulk messages; a single-block pair
// stays eager — the bulk path's chunking would produce the identical
// wire message.
func (s *Schedule) Mode(level Level, sender, receiver int, write bool, blockSize, threshold int) protocol.SendMode {
	if level < OptBulk {
		return protocol.SendEager
	}
	bmat, mmat := s.ReadBytes, s.ReadMsgs
	if write {
		bmat, mmat = s.WriteBytes, s.WriteMsgs
	}
	var bytes, msgs int64
	if sender < len(bmat) && receiver < len(bmat[sender]) {
		bytes = bmat[sender][receiver]
		msgs = mmat[sender][receiver]
	}
	switch {
	case bytes <= int64(blockSize):
		return protocol.SendEager
	case msgs >= 2 && bytes >= int64(threshold):
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

func (a *Analysis) buildSchedule(key any, rule *LoopRule, env map[string]int) *Schedule {
	pt := a.Partition(key, rule, env)
	s := &Schedule{}
	for _, rr := range rule.Reads {
		s.Reads = append(s.Reads, a.refTransfers(rule, rr, pt, env)...)
	}
	for _, rr := range rule.Writes {
		s.Writes = append(s.Writes, a.refTransfers(rule, rr, pt, env)...)
	}
	s.ReadBytes, s.ReadMsgs = a.trafficMatrices(s.Reads)
	s.WriteBytes, s.WriteMsgs = a.trafficMatrices(s.Writes)
	return s
}

// trafficMatrices sums each transfer list's block-aligned interiors
// into [sender][receiver] matrices: total bytes, and the number of
// bulk wire messages that traffic takes (one per contiguous block
// run). Schedules are memoized, so the cost is paid once per (loop,
// valuation).
func (a *Analysis) trafficMatrices(ts []Transfer) (bytes, msgs [][]int64) {
	bytes = make([][]int64, a.NP)
	msgs = make([][]int64, a.NP)
	cells := make([]int64, 2*a.NP*a.NP)
	for i := range bytes {
		bytes[i] = cells[i*a.NP : (i+1)*a.NP]
		msgs[i] = cells[(a.NP+i)*a.NP : (a.NP+i+1)*a.NP]
	}
	for i := range ts {
		t := &ts[i]
		bytes[t.Sender][t.Receiver] += int64(t.NumBlocks) * int64(a.BlockSize)
		msgs[t.Sender][t.Receiver] += int64(len(t.Blocks))
	}
	return bytes, msgs
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

// refTransfers instantiates one reference rule into concrete transfers.
func (a *Analysis) refTransfers(rule *LoopRule, rr *RefRule, pt *Partition, env map[string]int) []Transfer {
	arr := rr.Ref.Array
	d := a.dists[arr]
	ranges := a.VarRanges(rule, env)

	// Row section: dimensions 0..rank-2 bounded over the iteration
	// space and clipped to the array extents.
	rows := make([]sections.Dim, arr.Rank()-1)
	for dim := 0; dim < arr.Rank()-1; dim++ {
		lo, hi := EvalRange(rr.Ref.Subs[dim], ranges, env)
		if lo < 1 {
			lo = 1
		}
		if hi > arr.Extents[dim] {
			hi = arr.Extents[dim]
		}
		if lo > hi {
			return nil
		}
		rows[dim] = sections.Dim{Lo: lo, Hi: hi}
	}

	emit := func(out []Transfer, from, to, t0, t1 int) []Transfer {
		sec := sections.Section{Dims: append(append([]sections.Dim{}, rows...), sections.Dim{Lo: t0, Hi: t1})}
		return append(out, a.makeTransfer(arr, from, to, sec, rr.Redundant))
	}

	// groupByOwner walks columns [t0,t1], grouping runs with the same
	// owner, and emits a transfer for each run not owned by p.
	groupByOwner := func(out []Transfer, p, t0, t1 int, pIsReader bool) []Transfer {
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
					out = emit(out, o, p, t, end)
				} else {
					out = emit(out, p, o, t, end)
				}
			}
			t = end + 1
		}
		return out
	}

	var out []Transfer
	switch rr.Kind {
	case KindShift:
		// A shift reference implies a distributed loop variable, so the
		// partition is never single-processor here.
		c := rr.Rest.Eval(env)
		for p := 0; p < a.NP; p++ {
			for _, jr := range pt.Ranges[p] {
				out = groupByOwner(out, p, jr[0]+c, jr[1]+c, !rr.IsWrite)
			}
		}
	case KindFixed:
		t := rr.Rest.Eval(env)
		if t < 1 || t > d.Extent {
			return nil
		}
		owner := d.Owner(t)
		for p := 0; p < a.NP; p++ {
			if !pt.Executes(p) || p == owner {
				continue
			}
			if rr.IsWrite {
				out = emit(out, p, owner, t, t)
			} else {
				out = emit(out, owner, p, t, t)
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
			out = groupByOwner(out, p, rg[0]+c, rg[1]+c, true)
		}
	default:
		panic("compiler: transfer for local reference")
	}
	return out
}

// makeTransfer linearizes a section and computes its block-aligned
// interior (the shmem_limits shrink).
func (a *Analysis) makeTransfer(arr *ir.Array, from, to int, sec sections.Section, redundant bool) Transfer {
	layout := a.Layouts[arr]
	runs := sections.CoalesceRuns(layout.Runs(sec))
	total := 0
	for _, r := range runs {
		total += r.Bytes
	}
	blocks := sections.RunsToBlocks(sections.BlockAlign(runs, a.BlockSize), a.BlockSize)
	numBlocks := sections.CountBlocks(blocks)
	// Blocks touched but not fully covered: the edges.
	var touched []protocol.BlockRun
	for _, r := range runs {
		touched = append(touched, r.Blocks(a.BlockSize))
	}
	return Transfer{
		Array:      arr,
		Sender:     from,
		Receiver:   to,
		Sec:        sec,
		Blocks:     blocks,
		NumBlocks:  numBlocks,
		EdgeBytes:  total - numBlocks*a.BlockSize,
		EdgeBlocks: sections.Minus(touched, blocks),
		Redundant:  redundant,
		Key:        fmt.Sprintf("%s|%v|>%d", arr.Name, sec, to),
	}
}
