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
		for i := range np.dir {
			if !np.dir[i].idle() {
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
	s := &checkpoint.Snapshot{
		Epoch:      c.Epoch(),
		SimTime:    int64(c.Env.Now()),
		TimerStart: int64(c.TimerStart),
		ReduceGen:  c.ReduceGen(),
		Journal:    append([]float64(nil), c.ReduceJournal...),
		Nodes:      make([]checkpoint.NodeState, len(p.nodes)),
	}
	for k, np := range p.nodes {
		np.capture(&s.Nodes[k])
	}
	return s
}

// capture fills ns with this node's state. The kept block images share
// one arena and the directory sets another, each sized by a counting
// pass, so the allocations do not grow with what the node caches.
func (np *nodeProto) capture(ns *checkpoint.NodeState) {
	mem := np.n.Mem
	sp := mem.Space()
	tags, dirty := mem.Tags(), mem.DirtyMasks()
	*ns = checkpoint.NodeState{
		Tags:       make([]byte, len(tags)),
		Dirty:      make([]uint16, len(dirty)),
		Mapped:     make([]byte, sp.NumPages()),
		IWDone:     make([]checkpoint.IWKey, len(np.iwDone)),
		CCFrames:   np.packFlag(flagCCFrame),
		CCTouched:  np.packFlag(flagCCTouched),
		SCHold:     np.packFlag(flagSCHold),
		CCRecv:     np.ccRecv.Value(),
		CCExpected: np.ccExpected,
		Stats:      *np.n.St,
	}
	for b, t := range tags {
		ns.Tags[b] = byte(t)
	}
	copy(ns.Dirty, dirty)
	for pg := range ns.Mapped {
		if mem.Mapped(pg) {
			ns.Mapped[pg] = 1
		}
	}
	for i, r := range np.iwDone {
		ns.IWDone[i] = checkpoint.IWKey{A: int32(r.Start), B: int32(r.N)}
	}

	kept := 0
	np.keptBlocks(func(int) { kept++ })
	bs := sp.BlockSize()
	images := make([]byte, kept*bs)
	ns.Blocks = make([]checkpoint.BlockImage, 0, kept)
	np.keptBlocks(func(b int) {
		data := images[:bs:bs]
		images = images[bs:]
		copy(data, mem.BlockData(b))
		ns.Blocks = append(ns.Blocks, checkpoint.BlockImage{Block: int32(b), Data: data})
	})

	made := 0
	for i := range np.dir {
		if e := &np.dir[i]; e.made() {
			if !e.idle() {
				panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", sp.HomedBlock(np.id, i), np.id))
			}
			made++
		}
	}
	w := nsWords(len(np.p.nodes))
	words := make([]uint64, 3*w*made)
	ns.Dir = make([]checkpoint.DirEntry, 0, made)
	for i := range np.dir {
		e := &np.dir[i]
		if !e.made() {
			continue
		}
		sets := words[: 3*w : 3*w]
		words = words[3*w:]
		copy(sets, e.sets)
		ns.Dir = append(ns.Dir, checkpoint.DirEntry{
			Block:   int32(sp.HomedBlock(np.id, i)),
			Sharers: sets[:w:w],
			Writers: sets[w : 2*w : 2*w],
			Stale:   sets[2*w:],
		})
	}
}

// keptBlocks calls fn, in ascending order, on every block whose image a
// snapshot of this node keeps: the blocks homed here (home memory is the
// authoritative copy) and any other block with a live tag or dirty
// words. Everything else is reconstructible garbage.
func (np *nodeProto) keptBlocks(fn func(b int)) {
	mem := np.n.Mem
	sp := mem.Space()
	tags, dirty := mem.Tags(), mem.DirtyMasks()
	bpp := sp.Machine().PageSize / sp.BlockSize()
	nn := len(np.p.nodes)
	for pg := 0; pg < sp.NumPages(); pg++ {
		homed := pg%nn == np.id
		for b := pg * bpp; b < (pg+1)*bpp; b++ {
			if homed || tags[b] != memory.Invalid || dirty[b] != 0 {
				fn(b)
			}
		}
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
			mem.SetTag(b, memory.Tag(ns.Tags[b]))
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
