package compiler

import "sync/atomic"

// View is one node's share of a schedule, the paper's per-processor
// emission (Section 4.2): for each role the node plays, the indices into
// Schedule.Reads or Schedule.Writes of its transfers, ascending. Each
// list aliases the schedule's index and must not be modified.
type View struct {
	x *nodeIndex
	p int
}

// The lists of a View: the reads the node sends and those it receives,
// the writes it flushes to their owners and those flushed back to it,
// and the reads it receives that leave it edge blocks, whether or not
// they also have a block-aligned interior (none in a SectionView:
// message passing ships exact sections).
func (v View) ReadSend() []int32  { return v.list(roleReadSend) }
func (v View) ReadRecv() []int32  { return v.list(roleReadRecv) }
func (v View) WriteSend() []int32 { return v.list(roleWriteSend) }
func (v View) WriteRecv() []int32 { return v.list(roleWriteRecv) }
func (v View) ReadEdges() []int32 { return v.list(roleReadEdges) }

func (v View) list(role int) []int32 {
	if v.x == nil {
		return nil
	}
	k := role*v.x.np + v.p
	return v.x.idx[v.x.off[k]:v.x.off[k+1]:v.x.off[k+1]]
}

// The lists of a nodeIndex, one per View method.
const (
	roleReadSend = iota
	roleReadRecv
	roleWriteSend
	roleWriteRecv
	roleReadEdges
	numRoles
)

// nodeIndex holds every node's View of one schedule in two flat arrays:
// list r of node p is idx[off[r*np+p]:off[r*np+p+1]].
type nodeIndex struct {
	np  int
	off []int32
	idx []int32
	// In the live index only: every live read of the schedule, ascending,
	// and the plans of an instance in which PRE skips none of them — the
	// loop's first on this schedule, and a repeat.
	liveReads    []int32
	first, again Plan
}

// View returns node p's live transfers, those with a block-aligned
// interior (NumBlocks > 0): what the shared-memory executor moves under
// compiler control. Everything else of a section is the default
// protocol's, and ReadEdges says where that is.
func (s *Schedule) View(p int) View { return View{s.liveIndex(), p} }

func (s *Schedule) liveIndex() *nodeIndex { return s.index(&s.live, true) }

// SectionView returns all of node p's transfers, with or without a
// block-aligned interior: the message-passing backend ships exact
// sections.
func (s *Schedule) SectionView(p int) View { return View{s.index(&s.all, false), p} }

// index returns the index in slot, building it on first use. Concurrent
// paperbench -j runs that share a cached Analysis get here at the same
// time: both may build, one build is published and the other dropped
// before anyone saw it.
func (s *Schedule) index(slot *atomic.Pointer[nodeIndex], liveOnly bool) *nodeIndex {
	if x := slot.Load(); x != nil {
		return x
	}
	slot.CompareAndSwap(nil, buildIndex(s, liveOnly))
	return slot.Load()
}

// buildIndex is a counting sort of the schedule's transfers into the
// (role, node) lists: one pass counts them, and a second, visiting the
// transfers in descending order, fills every list from its end, so that
// each is ascending.
func buildIndex(s *Schedule, liveOnly bool) *nodeIndex {
	np := s.np
	x := &nodeIndex{np: np}
	each := func(put func(slot int, i int32)) {
		for i := len(s.Reads) - 1; i >= 0; i-- {
			t := &s.Reads[i]
			if t.NumBlocks > 0 || !liveOnly {
				put(roleReadSend*np+t.Sender, int32(i))
				put(roleReadRecv*np+t.Receiver, int32(i))
			}
			if liveOnly && len(t.EdgeBlocks) > 0 {
				put(roleReadEdges*np+t.Receiver, int32(i))
			}
		}
		for i := len(s.Writes) - 1; i >= 0; i-- {
			t := &s.Writes[i]
			if t.NumBlocks > 0 || !liveOnly {
				put(roleWriteSend*np+t.Sender, int32(i))
				put(roleWriteRecv*np+t.Receiver, int32(i))
			}
		}
	}
	x.off = make([]int32, numRoles*np+1)
	each(func(slot int, _ int32) { x.off[slot]++ })
	for k := 1; k < len(x.off); k++ {
		x.off[k] += x.off[k-1] // where list k ends
	}
	x.idx = make([]int32, x.off[len(x.off)-1])
	each(func(slot int, i int32) {
		x.off[slot]-- // down to where the list starts
		x.idx[x.off[slot]] = i
	})
	if !liveOnly {
		return x
	}
	x.liveReads = make([]int32, 0, x.off[roleReadRecv*np]) // every live read has a sender
	for i := range s.Reads {
		if s.Reads[i].NumBlocks > 0 {
			x.liveReads = append(x.liveReads, int32(i))
		}
	}
	liveWrites := 0
	for i := range s.Writes {
		if s.Writes[i].NumBlocks > 0 {
			liveWrites++
		}
	}
	x.first = Plan{Sched: s, LiveReads: len(x.liveReads), LiveWrites: liveWrites}
	x.again = x.first
	x.again.Repeat = true
	return x
}
