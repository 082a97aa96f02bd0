package analysis

import (
	"slices"
	"strconv"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

// SkippedTransfer records a transfer a higher optimization level
// elided, with the walker's independently derived judgement of whether
// the elision was sound at that point (Live: the previously delivered
// copy is still valid — no intervening write to the array).
type SkippedTransfer struct {
	T    compiler.Transfer
	Live bool
}

// LoopCalls is one loop instance as the contract checks see it: the
// facts every node's call sequence folds into, plus the (PRE-filtered)
// transfers the sequence implements and the transfers that were elided.
// It is the model's scratch, lists and facts alike: it holds until the
// model folds its next instance.
type LoopCalls struct {
	Key      any
	Site     Site
	Sched    *compiler.Schedule  // nil at OptNone
	Reads    []compiler.Transfer // active read transfers (after filtering)
	Writes   []compiler.Transfer // active write transfers
	Skipped  []SkippedTransfer   // transfers elided by OptPRE
	IsReduce bool
	Barriers []int // per node: the barriers it reaches

	f *fold
}

// sigOf renders a rule's symbol valuation for provenance ("" when the
// schedule is constant), as "K=10,L=3".
func sigOf(rule *compiler.LoopRule, env map[string]int) string {
	b := make([]byte, 0, 32)
	for i, v := range rule.UsedSym {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(append(b, v...), '='), int64(env[v]), 10)
	}
	return string(b)
}

// evKind is the call an event is.
type evKind uint8

const (
	evOpen  evKind = iota // implicit_writable
	evClose               // implicit_invalidate
	evSend
	evFlush
)

func (k evKind) String() string {
	return [...]string{"implicit_writable", "implicit_invalidate", "send", "flush"}[k]
}

// event is a call that opens or closes a node's frames, or lands data on
// its destination's memory, with the barrier phase its node makes it in.
type event struct {
	kind   evKind
	phase  int
	node   int
	dst    int // send, flush: the receiving node
	blocks []protocol.BlockRun
}

// flushed is the blocks one sender flushes to one destination.
type flushed struct {
	dst    int
	blocks []protocol.BlockRun
}

// fold is the verifier's sink of the emitter: it folds each call, as the
// emitter makes it, into the facts the contract checks read. The model
// owns one and resets it for every instance, keeping its memory. A block
// list the emitter passes is its scratch, so what is kept of one is
// copied; a transfer is the schedule's and outlives the call. Block sets
// are gathered as they come and made canonical in place, for the checks.
type fold struct {
	node   int  // the node whose calls arrive
	side   int  // 0 before the loop body, 1 after it
	phase  int  // the model's barrier phase when the instance began
	repeat bool // the model checked the instance's site before: fold what advance reads

	barriers []int    // per node: the barriers it reaches
	expect   [2][]int // per side, per node: the blocks it expects
	ready    [2][]bool
	mkw      [][]protocol.BlockRun // per node: the blocks it makes writable before the body
	sentPre  []int                 // per receiver: blocks sent to it before the body
	flushIn  []int                 // per receiver: blocks flushed to it
	sentSet  [][]protocol.BlockRun // per receiver: the blocks sent to it
	flushSet [][]flushed           // per sender: the blocks it flushes, by destination

	// frames (implicit_writable, implicit_invalidate) and arrivals (send,
	// flush) in node-major emission order; blocks holds the frame
	// events' block lists, each canonical.
	frames, arrivals []event
	blocks           []protocol.BlockRun
}

func newFold(np int) fold {
	return fold{
		barriers: make([]int, np),
		expect:   [2][]int{make([]int, np), make([]int, np)},
		ready:    [2][]bool{make([]bool, np), make([]bool, np)},
		mkw:      make([][]protocol.BlockRun, np),
		sentPre:  make([]int, np),
		flushIn:  make([]int, np),
		sentSet:  make([][]protocol.BlockRun, np),
		flushSet: make([][]flushed, np),
	}
}

func (f *fold) reset(phase int, repeat bool) {
	f.phase, f.repeat = phase, repeat
	clear(f.barriers)
	for side := range f.expect {
		clear(f.expect[side])
		clear(f.ready[side])
	}
	clear(f.sentPre)
	clear(f.flushIn)
	for n := range f.barriers {
		f.mkw[n], f.sentSet[n], f.flushSet[n] = f.mkw[n][:0], f.sentSet[n][:0], f.flushSet[n][:0]
	}
	f.frames, f.arrivals, f.blocks = f.frames[:0], f.arrivals[:0], f.blocks[:0]
}

// canonical makes the fold's block sets canonical, in their own memory.
func (f *fold) canonical() {
	for n := range f.barriers {
		f.mkw[n] = sections.NormalizeInPlace(f.mkw[n])
		f.sentSet[n] = sections.NormalizeInPlace(f.sentSet[n])
		for i := range f.flushSet[n] {
			f.flushSet[n][i].blocks = sections.NormalizeInPlace(f.flushSet[n][i].blocks)
		}
	}
}

func (f *fold) MkWritable(b []protocol.BlockRun) {
	if f.side == 0 && !f.repeat {
		f.mkw[f.node] = append(f.mkw[f.node], b...)
	}
}

func (f *fold) ImplicitWritable(b []protocol.BlockRun)   { f.frame(evOpen, b) }
func (f *fold) ImplicitInvalidate(b []protocol.BlockRun) { f.frame(evClose, b) }
func (f *fold) Expect(n int)                             { f.expect[f.side][f.node] += n }
func (f *fold) ReadyToRecv()                             { f.ready[f.side][f.node] = true }
func (f *fold) Barrier()                                 { f.barriers[f.node]++ }
func (f *fold) Drain()                                   {} // transport, not contract

func (f *fold) Send(t *compiler.Transfer) {
	if f.repeat {
		return
	}
	f.arrive(evSend, t)
	if f.side == 0 {
		f.sentPre[t.Receiver] += sections.CountBlocks(t.Blocks)
	}
	f.sentSet[t.Receiver] = append(f.sentSet[t.Receiver], t.Blocks...)
}

func (f *fold) Flush(t *compiler.Transfer) {
	if f.repeat {
		return
	}
	f.arrive(evFlush, t)
	f.flushIn[t.Receiver] += sections.CountBlocks(t.Blocks)
	out := f.flushSet[f.node]
	for i := range out {
		if out[i].dst == t.Receiver {
			out[i].blocks = append(out[i].blocks, t.Blocks...)
			return
		}
	}
	out = slices.Grow(out, 1)[:len(out)+1] // reusing the list the slot held
	out[len(out)-1] = flushed{t.Receiver, append(out[len(out)-1].blocks[:0], t.Blocks...)}
	f.flushSet[f.node] = out
}

func (f *fold) frame(k evKind, b []protocol.BlockRun) {
	at := len(f.blocks)
	f.blocks = append(f.blocks, b...)
	f.blocks = f.blocks[:at+len(sections.NormalizeInPlace(f.blocks[at:]))]
	f.frames = append(f.frames, event{kind: k, phase: f.phase + f.barriers[f.node], node: f.node, blocks: f.blocks[at:len(f.blocks):len(f.blocks)]})
}

func (f *fold) arrive(k evKind, t *compiler.Transfer) {
	f.arrivals = append(f.arrivals, event{kind: k, phase: f.phase + f.barriers[f.node], node: f.node, dst: t.Receiver, blocks: t.Blocks})
}

// flushedTo returns the blocks sender flushes to dst.
func (f *fold) flushedTo(sender, dst int) []protocol.BlockRun {
	for _, fl := range f.flushSet[sender] {
		if fl.dst == dst {
			return fl.blocks
		}
	}
	return nil
}

// FoldLoopCalls folds the call sequence of one loop (or reduction)
// instance whose schedule the caller has (nil below OptBase): what the
// emitter the executor runs emits for each node — run-time elimination's
// call and barrier elisions and PRE's transfer skips included — from the
// same inputs the executor hands it, the level and the instance's plan
// off a planner of the model's own. The transfers the sequence
// implements and the ones PRE elided are listed beside the facts for
// the contract checks. An instance whose site the model has checked
// before folds only its frames and barriers, all that a repeat changes.
// The LoopCalls returned is the model's own, refilled by each fold.
func (m *Model) FoldLoopCalls(key any, site Site, sched *compiler.Schedule, isReduce bool) *LoopCalls {
	lc := &m.calls
	*lc = LoopCalls{
		Key:      key,
		Site:     site,
		Sched:    sched,
		Reads:    lc.Reads[:0],
		Writes:   lc.Writes[:0],
		Skipped:  lc.Skipped[:0],
		IsReduce: isReduce,
		f:        &m.fold,
	}
	var plan *compiler.Plan
	if sched != nil {
		plan = m.plans.At(m.inst, key, sched)
		m.inst++
		for _, i := range plan.LiveReadIndexes() {
			if t := sched.Reads[i]; plan.Skips(i) {
				lc.Skipped = append(lc.Skipped, SkippedTransfer{T: t, Live: m.live[t.Array.Name][t.Key]})
			} else {
				lc.Reads = append(lc.Reads, t)
			}
		}
		for _, t := range sched.Writes {
			if t.NumBlocks > 0 {
				lc.Writes = append(lc.Writes, t)
			}
		}
	}
	f := &m.fold
	f.reset(m.phase, m.checked[site])
	for f.node = range f.barriers {
		f.side = 0
		m.em.Pre(plan, f.node, m.level, m.sink())
		f.side = 1
		if isReduce {
			f.Barrier() // the AllReduce synchronizes
		}
		m.em.Post(plan, f.node, m.level, isReduce, m.sink())
	}
	lc.Barriers = f.barriers
	return lc
}

// sink is where the emitter's calls for the fold's current node and side
// go: the fold, or the test seam's wrapper around it.
func (m *Model) sink() compiler.Calls {
	if m.Tee == nil {
		return &m.fold
	}
	return m.Tee(m.fold.node, m.fold.side == 1, &m.fold)
}
