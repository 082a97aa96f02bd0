// Barrier-consistent checkpoint capture and restore.
//
// The crash-recovery layer snapshots the protocol at synchronization
// epochs where the whole machine is provably quiescent: nothing in
// flight on the wire, no handler invocations queued, no deferred
// protocol work armed, no blocking miss outstanding, no directory
// transaction collecting, and no coalescer buffer open. At such an
// instant every block's truth is fully captured by memory images, tags,
// dirty masks, and directory masks — Restore rebuilds an equivalent
// machine on a fresh cluster and the run resumes as if the epoch had
// just completed.
package protocol

import (
	"fmt"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
)

// Quiescent reports whether the cluster is checkpointable right now.
// Intended to be called at a barrier's all-arrived instant; mid-epoch
// it is almost always false.
func (p *Proto) Quiescent() bool {
	net := p.C.Net
	if net.Inflight() != 0 || !net.ChannelsQuiescent() {
		return false
	}
	for _, np := range p.nodes {
		if np.defers != 0 {
			return false
		}
		if np.n.HandlersQueued() != 0 || np.n.Pending() != 0 {
			return false
		}
		if np.fill != nil {
			return false
		}
		if np.ccRecv.Value() != np.ccExpected {
			return false
		}
		if co := np.n.Net.CoalescerOf(np.id); co != nil && co.PendingAny() {
			return false
		}
		if len(np.relay) != 0 {
			return false
		}
		for i := range np.dir {
			if !np.dir[i].idle() {
				return false
			}
		}
	}
	return true
}

// Checkpoint appends the encoded snapshot of the cluster's
// protocol-visible state to dst and returns the extended buffer
// (checkpoint.AppendEncode): into a buffer that already holds a
// checkpoint's capacity it allocates nothing. The caller must have
// established quiescence (Quiescent); a busy directory entry here is a
// bug, not a race.
//
// The snapshot it encodes lives in scratch the Proto owns, made on the
// first call, and borrows the live state: block images, dirty masks,
// directory sets and the reduction journal are the cluster's own
// slices, not copies. It never escapes this call — only the encoded
// bytes do — so the borrow ends before anything can move that state.
func (p *Proto) Checkpoint(dst []byte) []byte {
	c := p.C
	if p.ckpt == nil {
		p.ckpt = &checkpoint.Snapshot{Nodes: make([]checkpoint.NodeState, len(p.nodes))}
	}
	s := p.ckpt
	s.Epoch = c.Epoch()
	s.SimTime = int64(c.Env.Now())
	s.TimerStart = int64(c.TimerStart)
	s.ReduceGen = c.ReduceGen()
	s.Journal = c.ReduceJournal
	for k, np := range p.nodes {
		np.snapshot(&s.Nodes[k])
	}
	return checkpoint.AppendEncode(dst, s)
}

// snapshot points ns at this node's state, in one ordered walk. Tags,
// mapped pages and the three flags are converted into a byte arena ns
// keeps from the first call on. The kept block images are the node's
// memory: the blocks homed here (home memory is the authoritative copy)
// and any other block with a live tag or dirty words; everything else is
// reconstructible garbage. Each directory entry's sets are the entry's
// own.
func (np *nodeProto) snapshot(ns *checkpoint.NodeState) {
	mem := np.n.Mem
	sp := mem.Space()
	tags, dirty := mem.Tags(), mem.DirtyMasks()
	nb, npg := len(tags), sp.NumPages()
	if ns.Tags == nil {
		arena := make([]byte, 4*nb+npg)
		ns.Tags, arena = arena[:nb:nb], arena[nb:]
		ns.CCFrames, arena = arena[:nb:nb], arena[nb:]
		ns.CCTouched, arena = arena[:nb:nb], arena[nb:]
		ns.SCHold, ns.Mapped = arena[:nb:nb], arena[nb:]
	}
	for b, t := range tags {
		ns.Tags[b] = byte(t)
	}
	for b, f := range np.flags {
		ns.CCFrames[b] = f / flagCCFrame & 1
		ns.CCTouched[b] = f / flagCCTouched & 1
		ns.SCHold[b] = f / flagSCHold & 1
	}
	for pg := range ns.Mapped {
		ns.Mapped[pg] = 0
		if mem.Mapped(pg) {
			ns.Mapped[pg] = 1
		}
	}
	ns.Dirty = dirty
	ns.IWDone = ns.IWDone[:0]
	for _, r := range np.iwDone {
		ns.IWDone = append(ns.IWDone, checkpoint.IWKey{A: int32(r.Start), B: int32(r.N)})
	}
	ns.CCRecv = np.ccRecv.Value()
	ns.CCExpected = np.ccExpected
	ns.Stats = *np.n.St

	ns.Blocks = ns.Blocks[:0]
	bpp := sp.Machine().PageSize / sp.BlockSize()
	for pg := 0; pg < npg; pg++ {
		homed := pg%len(np.p.nodes) == np.id
		for b := pg * bpp; b < (pg+1)*bpp; b++ {
			if homed || tags[b] != memory.Invalid || dirty[b] != 0 {
				ns.Blocks = append(ns.Blocks, checkpoint.BlockImage{Block: int32(b), Data: mem.BlockData(b)})
			}
		}
	}

	ns.Dir = ns.Dir[:0]
	for i := range np.dir {
		e := &np.dir[i]
		if !e.made() {
			continue
		}
		if !e.idle() {
			panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", sp.HomedBlock(np.id, i), np.id))
		}
		ns.Dir = append(ns.Dir, checkpoint.DirEntry{
			Block:   int32(sp.HomedBlock(np.id, i)),
			Sharers: e.sharers(),
			Writers: e.writers(),
			Stale:   e.stale(),
		})
	}
}

// Restore installs a snapshot on a freshly built cluster (same machine
// configuration, no traffic yet). It rebuilds memory images, tags,
// dirty masks, directory state, and the compiler-directed transfer
// bookkeeping, and rebases the cluster's epoch, reduction generation,
// journal, and timer start.
func (p *Proto) Restore(s *checkpoint.Snapshot) error {
	c := p.C
	sp := c.Space
	nb := sp.NumBlocks()
	npg := sp.NumPages()
	wpb := sp.BlockSize() / 8
	allDirty := uint16(1)<<wpb - 1
	if len(s.Nodes) != len(p.nodes) {
		return fmt.Errorf("protocol: snapshot has %d nodes, cluster has %d", len(s.Nodes), len(p.nodes))
	}
	for i, np := range p.nodes {
		ns := &s.Nodes[i]
		for _, t := range []struct {
			name      string
			got, want int
		}{
			{"Tags", len(ns.Tags), nb}, {"Dirty", len(ns.Dirty), nb}, {"Mapped", len(ns.Mapped), npg},
			{"CCFrames", len(ns.CCFrames), nb}, {"CCTouched", len(ns.CCTouched), nb}, {"SCHold", len(ns.SCHold), nb},
		} {
			if t.got != t.want {
				return fmt.Errorf("protocol: snapshot node %d sized for a different segment (%s has %d entries, want %d)",
					i, t.name, t.got, t.want)
			}
		}
		mem := np.n.Mem
		for _, bi := range ns.Blocks {
			b := int(bi.Block)
			if b < 0 || b >= nb || len(bi.Data) != sp.BlockSize() {
				return fmt.Errorf("protocol: snapshot node %d has bad block image %d (%d bytes)", i, b, len(bi.Data))
			}
			mem.InstallBlock(b, bi.Data)
		}
		for b := 0; b < nb; b++ {
			t := memory.Tag(ns.Tags[b])
			if t > memory.ReadWrite {
				return fmt.Errorf("protocol: snapshot node %d has tag %d for block %d, above readwrite", i, t, b)
			}
			if ns.Dirty[b]&^allDirty != 0 {
				return fmt.Errorf("protocol: snapshot node %d has dirty mask %#x for block %d, past its %d words", i, ns.Dirty[b], b, wpb)
			}
			mem.SetTag(b, t)
			mem.SetDirtyMask(b, ns.Dirty[b])
		}
		for pg := 0; pg < npg; pg++ {
			if ns.Mapped[pg] != 0 {
				mem.SetMapped(pg)
			}
		}
		clear(np.dir)
		clear(np.slab)
		words := nsWords(len(p.nodes))
		for _, d := range ns.Dir {
			b := int(d.Block)
			home, slot := sp.HomeSlot(b)
			if b < 0 || b >= nb || home != np.id {
				return fmt.Errorf("protocol: snapshot node %d has directory entry for foreign block %d", i, b)
			}
			if len(d.Sharers) > words || len(d.Writers) > words || len(d.Stale) > words {
				return fmt.Errorf("protocol: snapshot node %d directory entry for block %d sized for a larger cluster", i, b)
			}
			e := np.makeEntry(slot)
			copy(e.sharers(), d.Sharers)
			copy(e.writers(), d.Writers)
			copy(e.stale(), d.Stale)
		}
		// ImplicitWritable binary-searches the memo: an unsorted one
		// would skip or repeat a first-time-only run.
		np.iwDone = np.iwDone[:0]
		for j, k := range ns.IWDone {
			r := BlockRun{Start: int(k.A), N: int(k.B)}
			if r.Start < 0 || r.N < 0 || r.Start+r.N > nb {
				return fmt.Errorf("protocol: snapshot node %d has implicit_writable run %d+%d outside the segment's %d blocks", i, r.Start, r.N, nb)
			}
			if j > 0 && cmpRun(np.iwDone[j-1], r) >= 0 {
				return fmt.Errorf("protocol: snapshot node %d has implicit_writable run %d+%d out of order or repeated", i, r.Start, r.N)
			}
			np.iwDone = append(np.iwDone, r)
		}
		for b := range np.flags {
			np.flags[b] = flagIf(ns.CCFrames[b], flagCCFrame) | flagIf(ns.CCTouched[b], flagCCTouched) | flagIf(ns.SCHold[b], flagSCHold)
		}
		np.ccRecv.Reset()
		np.ccRecv.Add(ns.CCRecv)
		np.ccExpected = ns.CCExpected
		*np.n.St = ns.Stats
	}
	c.TimerStart = sim.Time(s.TimerStart)
	c.RestoreEpoch(s.Epoch, s.ReduceGen, s.Journal)
	return nil
}

// flagIf returns bit when a snapshot's byte for it is set.
func flagIf(packed byte, bit uint8) uint8 {
	if packed != 0 {
		return bit
	}
	return 0
}
