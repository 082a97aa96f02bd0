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
		if np.coal != nil && np.coal.PendingAny() {
			return false
		}
		if len(np.relay) != 0 {
			return false
		}
		for _, e := range np.dir {
			if e != nil && !e.idle() {
				return false
			}
		}
	}
	return true
}

// Capture snapshots the cluster's protocol-visible state. The caller
// must have established quiescence (Quiescent); a busy directory entry
// here is a bug, not a race.
func (p *Proto) Capture() *checkpoint.Snapshot {
	c := p.C
	sp := c.Space
	nb := sp.NumBlocks()
	npg := sp.NumPages()
	s := &checkpoint.Snapshot{
		Epoch:      c.Epoch(),
		SimTime:    int64(c.Env.Now()),
		TimerStart: int64(c.TimerStart),
		ReduceGen:  c.ReduceGen(),
		Journal:    append([]float64(nil), c.ReduceJournal...),
	}
	for _, np := range p.nodes {
		mem := np.n.Mem
		ns := checkpoint.NodeState{
			Tags:       make([]byte, nb),
			Dirty:      make([]uint16, nb),
			Mapped:     make([]byte, npg),
			CCRecv:     np.ccRecv.Value(),
			CCExpected: np.ccExpected,
			Stats:      *np.n.St,
		}
		for b := 0; b < nb; b++ {
			ns.Tags[b] = byte(mem.Tag(b))
			ns.Dirty[b] = mem.Dirty(b)
			// A block matters if this node is its home (home memory is
			// the authoritative copy) or holds a live or dirty cached
			// copy; everything else is reconstructible garbage.
			if sp.HomeOfBlock(b) == np.id || mem.Tag(b) != memory.Invalid || mem.Dirty(b) != 0 {
				ns.Blocks = append(ns.Blocks, checkpoint.BlockImage{
					Block: int32(b),
					Data:  append([]byte(nil), mem.BlockData(b)...),
				})
			}
		}
		for pg := 0; pg < npg; pg++ {
			if mem.Mapped(pg) {
				ns.Mapped[pg] = 1
			}
		}
		for i, e := range np.dir {
			if e == nil {
				continue
			}
			b := sp.HomedBlock(np.id, i)
			if !e.idle() {
				panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", b, np.id))
			}
			ns.Dir = append(ns.Dir, checkpoint.DirEntry{
				Block:   int32(b),
				Sharers: append([]uint64(nil), e.sharers.words()...),
				Writers: append([]uint64(nil), e.writers.words()...),
				Stale:   append([]uint64(nil), e.stale.words()...),
			})
		}
		for _, r := range np.iwDone {
			ns.IWDone = append(ns.IWDone, checkpoint.IWKey{A: int32(r.Start), B: int32(r.N)})
		}
		ns.CCFrames = np.packFlag(flagCCFrame)
		ns.CCTouched = np.packFlag(flagCCTouched)
		ns.SCHold = np.packFlag(flagSCHold)
		s.Nodes = append(s.Nodes, ns)
	}
	return s
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
	if len(s.Nodes) != len(p.nodes) {
		return fmt.Errorf("protocol: snapshot has %d nodes, cluster has %d", len(s.Nodes), len(p.nodes))
	}
	for i, np := range p.nodes {
		ns := &s.Nodes[i]
		if len(ns.Tags) != nb || len(ns.Dirty) != nb || len(ns.Mapped) != npg ||
			len(ns.CCFrames) != nb || len(ns.CCTouched) != nb || len(ns.SCHold) != nb {
			return fmt.Errorf("protocol: snapshot node %d sized for a different segment (%d blocks, %d pages; want %d, %d)",
				i, len(ns.Tags), len(ns.Mapped), nb, npg)
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
			mem.SetTag(b, memory.Tag(ns.Tags[b]))
			mem.SetDirtyMask(b, ns.Dirty[b])
		}
		for pg := 0; pg < npg; pg++ {
			if ns.Mapped[pg] != 0 {
				mem.SetMapped(pg)
			}
		}
		clear(np.dir)
		nnodes := len(p.nodes)
		words := nsWords(nnodes)
		for _, d := range ns.Dir {
			b := int(d.Block)
			home, slot := sp.HomeSlot(b)
			if b < 0 || b >= nb || home != np.id {
				return fmt.Errorf("protocol: snapshot node %d has directory entry for foreign block %d", i, b)
			}
			if len(d.Sharers) > words || len(d.Writers) > words || len(d.Stale) > words {
				return fmt.Errorf("protocol: snapshot node %d directory entry for block %d sized for a larger cluster", i, b)
			}
			e := newDirEntry(nnodes)
			e.sharers.loadWords(d.Sharers)
			e.writers.loadWords(d.Writers)
			e.stale.loadWords(d.Stale)
			np.dir[slot] = e
		}
		np.iwDone = np.iwDone[:0]
		for _, k := range ns.IWDone {
			np.iwDone = append(np.iwDone, BlockRun{Start: int(k.A), N: int(k.B)})
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

// packFlag returns one flag of every block as a byte each, the form a
// snapshot keeps it in.
func (np *nodeProto) packFlag(bit uint8) []byte {
	out := make([]byte, len(np.flags))
	for b, f := range np.flags {
		if f&bit != 0 {
			out[b] = 1
		}
	}
	return out
}
