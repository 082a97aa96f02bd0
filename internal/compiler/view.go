package compiler

import "sync/atomic"

// View is one node's share of a schedule, the paper's per-processor
// emission (Section 4.2): for each role the node plays, the indices into
// Schedule.Reads or Schedule.Writes of its transfers, ascending. The
// slices alias the schedule's index and must not be modified.
type View struct {
	ReadSend  []int32 // reads this node sends
	ReadRecv  []int32 // reads this node receives
	WriteSend []int32 // writes this node flushes to their owners
	WriteRecv []int32 // writes flushed back to this node
	// ReadEdges are the reads this node receives that leave it edge
	// blocks (whether or not they also have a block-aligned interior).
	// Empty in a SectionView: message passing ships exact sections.
	ReadEdges []int32
}

// The lists of a nodeIndex, one per View field.
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
func (s *Schedule) View(p int) View { return s.liveIndex().view(p) }

func (s *Schedule) liveIndex() *nodeIndex { return s.index(&s.live, true) }

// SectionView returns all of node p's transfers, with or without a
// block-aligned interior: the message-passing backend ships exact
// sections.
func (s *Schedule) SectionView(p int) View { return s.index(&s.all, false).view(p) }

// index returns the index in slot, building it on first use. Executors
// of different PDES partitions get here concurrently: both may build,
// one build is published and the other dropped before anyone saw it.
func (s *Schedule) index(slot *atomic.Pointer[nodeIndex], liveOnly bool) *nodeIndex {
	if x := slot.Load(); x != nil {
		return x
	}
	slot.CompareAndSwap(nil, buildIndex(s, liveOnly))
	return slot.Load()
}

func (x *nodeIndex) view(p int) View {
	list := func(role int) []int32 {
		k := role*x.np + p
		return x.idx[x.off[k]:x.off[k+1]:x.off[k+1]]
	}
	return View{
		ReadSend:  list(roleReadSend),
		ReadRecv:  list(roleReadRecv),
		WriteSend: list(roleWriteSend),
		WriteRecv: list(roleWriteRecv),
		ReadEdges: list(roleReadEdges),
	}
}

// buildIndex is a counting sort of the schedule's transfers into the
// (role, node) lists: one pass sizes them, a second fills them, and
// because both visit the transfers in ascending order so is every list.
func buildIndex(s *Schedule, liveOnly bool) *nodeIndex {
	np := len(s.ReadBytes) // the traffic matrices are NP x NP
	x := &nodeIndex{np: np}
	each := func(put func(slot int, i int32)) {
		for i := range s.Reads {
			t := &s.Reads[i]
			if t.NumBlocks > 0 || !liveOnly {
				put(roleReadSend*np+t.Sender, int32(i))
				put(roleReadRecv*np+t.Receiver, int32(i))
			}
			if liveOnly && len(t.EdgeBlocks) > 0 {
				put(roleReadEdges*np+t.Receiver, int32(i))
			}
		}
		for i := range s.Writes {
			t := &s.Writes[i]
			if t.NumBlocks > 0 || !liveOnly {
				put(roleWriteSend*np+t.Sender, int32(i))
				put(roleWriteRecv*np+t.Receiver, int32(i))
			}
		}
	}
	x.off = make([]int32, numRoles*np+1)
	each(func(slot int, _ int32) { x.off[slot+1]++ })
	for k := 1; k < len(x.off); k++ {
		x.off[k] += x.off[k-1]
	}
	x.idx = make([]int32, x.off[len(x.off)-1])
	next := append([]int32(nil), x.off...)
	each(func(slot int, i int32) {
		x.idx[next[slot]] = i
		next[slot]++
	})
	if !liveOnly {
		return x
	}
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
