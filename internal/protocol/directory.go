package protocol

import (
	"fmt"

	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
)

// dirEntry is the home-side directory state for one block: which nodes
// hold readonly copies (sharers) and which hold writable copies
// (writers; more than one is legal under the multiple-writer protocol).
// Requests against a block are serviced one at a time: while a request
// is collecting flushes or invalidation acknowledgements the entry is
// busy and later requests queue.
type dirEntry struct {
	sharers nodeset
	writers nodeset

	// stale marks nodes whose retained copy may hold stale words: when
	// a read collects flushes from two or more concurrent writers, each
	// writer keeps a readonly copy that never saw the *other* writers'
	// words. The protocol tolerates this (data-race-free programs only
	// read words they are entitled to), but the invariant checker's
	// data-agreement audit must not compare those copies against home.
	stale nodeset

	busy    bool
	cur     *dirReq
	pending int
	waitQ   []*dirReq
}

// idle reports that no transaction is collecting or queued on the entry.
func (e *dirEntry) idle() bool {
	return !e.busy && e.pending == 0 && len(e.waitQ) == 0 && e.cur == nil
}

// newDirEntry allocates an entry with sets sized for an n-node cluster.
func newDirEntry(n int) *dirEntry {
	e := &dirEntry{}
	e.sharers, e.writers, e.stale = newNodesets(n)
	return e
}

// dirReq is one directory transaction. For remote requesters the reply
// is a message; for the home node's own faults (and local mk_writable
// work) the completion runs the local callback instead.
type dirReq struct {
	kind  network.Kind
	block int
	src   int
	local func() // non-nil for home-local requests

	needData bool    // mk_writable: requester lacks the data
	agg      *mkwAgg // mk_writable aggregation, nil otherwise
}

// entry returns (creating if needed) the directory entry for block b,
// which must be homed at this node. A fresh entry reflects the initial
// tag state: home pages start writable at home.
func (np *nodeProto) entry(b int) *dirEntry {
	home, i := np.n.Mem.Space().HomeSlot(b)
	if home != np.id {
		panic(fmt.Sprintf("protocol: node %d asked for directory entry of block %d homed at %d", np.id, b, home))
	}
	e := np.dir[i]
	if e == nil {
		e = newDirEntry(len(np.p.nodes))
		switch np.n.Mem.Tag(b) {
		case memory.ReadWrite:
			e.writers.set(np.id)
		case memory.ReadOnly:
			e.sharers.set(np.id)
		}
		np.dir[i] = e
	}
	return e
}

// enqueue services r now, or queues it if the block's entry is busy.
// Requests against a block whose just-granted store has not retired
// (scHold, sequential consistency) are deferred briefly, except the
// holder's own — progress is guaranteed because the held store retires
// at the already-scheduled resume time.
func (np *nodeProto) enqueue(r *dirReq) {
	if np.flags[r.block]&flagSCHold != 0 && r.src != np.id {
		np.later(func() { np.enqueue(r) })
		return
	}
	e := np.entry(r.block)
	if e.busy {
		e.waitQ = append(e.waitQ, r)
		return
	}
	np.start(e, r)
}

// start begins servicing r: it collects remote copies (flushes from
// writers, invalidation acks from sharers) as the request type demands,
// then finishes immediately if nothing remote is outstanding.
func (np *nodeProto) start(e *dirEntry, r *dirReq) {
	mem := np.n.Mem
	mc := np.n.MC
	need := 0

	flushWriter := func(w int, invalidate bool) {
		if w == np.id {
			// Home's writes land directly in home memory; just
			// downgrade the tag.
			np.occupy(mc.TagChange)
			mem.ClearDirty(r.block)
			e.writers.clear(np.id)
			if invalidate {
				np.heatInval(r.block)
				mem.SetTag(r.block, memory.Invalid)
			} else {
				mem.SetTag(r.block, memory.ReadOnly)
				e.sharers.set(np.id)
			}
			return
		}
		arg := int64(0)
		if invalidate {
			arg = 1
		}
		np.ctrl(w, KPutDataReq, r.block, arg, 0)
		need++
	}
	invalSharer := func(s int) {
		if s == np.id {
			np.occupy(mc.TagChange)
			np.heatInval(r.block)
			mem.SetTag(r.block, memory.Invalid)
			e.sharers.clear(np.id)
			return
		}
		// Latency-tolerant under eager RC: the requester's next sync
		// point gates on its grant, which gates on these acks, so all of
		// an epoch's invalidations land before its barrier completes.
		np.post(s, KInval, r.block, false)
		need++
	}

	switch r.kind {
	case KReadReq:
		// If two or more nodes hold modified words (the home's direct
		// writes count), the readonly copies the flushed writers keep
		// are mutually stale; record that for the data-agreement audit.
		holders := e.writers.count()
		if mem.Dirty(r.block) != 0 && !e.writers.has(np.id) {
			holders++
		}
		multiWriter := holders >= 2
		for w := e.writers.next(0); w >= 0; w = e.writers.next(w + 1) {
			if w != r.src {
				if multiWriter && w != np.id {
					e.stale.set(w)
				}
				flushWriter(w, false)
			}
		}
	case KWriteReq, KUpgradeReq, KMkWritableReq:
		for w := e.writers.next(0); w >= 0; w = e.writers.next(w + 1) {
			if w != r.src {
				flushWriter(w, true)
			}
		}
		if tree := np.p.tree; tree != nil {
			need += np.invalSharersTree(e, r, invalSharer)
		} else {
			for s := e.sharers.next(0); s >= 0; s = e.sharers.next(s + 1) {
				if s != r.src {
					invalSharer(s)
				}
			}
		}
	default:
		panic(fmt.Sprintf("protocol: directory cannot service kind %d", r.kind))
	}

	if need > 0 {
		e.busy = true
		e.cur = r
		e.pending = need
		return
	}
	np.finish(e, r)
}

// ownedBy records node id as the block's only holder, a writer: every
// other copy was just invalidated.
func (e *dirEntry) ownedBy(id int) {
	e.writers.clearAll()
	e.writers.set(id)
	e.sharers.clearAll()
	e.stale.clearAll()
}

// forget removes node id's copy from the entry.
func (e *dirEntry) forget(id int) {
	e.writers.clear(id)
	e.sharers.clear(id)
	e.stale.clear(id) // copy gone; staleness moot
}

// collecting returns block b's entry, which must be busy: a flush or an
// acknowledgement for it has just arrived.
func (np *nodeProto) collecting(b int) *dirEntry {
	e := np.lookup(b)
	if e == nil || !e.busy {
		panic(fmt.Sprintf("protocol: node %d got a collection response for idle block %d", np.id, b))
	}
	return e
}

// collectDone records one flush or invalidation acknowledgement for a
// busy entry; keeps indicates the responder retained a readonly copy.
func (np *nodeProto) collectDone(b, from int, keeps bool) {
	e := np.collecting(b)
	if keeps {
		e.writers.clear(from)
		e.sharers.set(from)
	} else {
		e.forget(from)
	}
	np.retire(b, e, 1)
}

// retire accounts for n more of the copies block b's transaction is
// collecting; once none is outstanding the request completes and the
// queue behind it drains.
func (np *nodeProto) retire(b int, e *dirEntry, n int) {
	e.pending -= n
	if e.pending > 0 {
		return
	}
	r := e.cur
	e.cur = nil
	e.busy = false
	np.finish(e, r)
	np.drain(b, e)
}

// drain services queued requests until the entry goes busy again.
func (np *nodeProto) drain(b int, e *dirEntry) {
	for !e.busy && len(e.waitQ) > 0 {
		r := e.waitQ[0]
		e.waitQ = e.waitQ[1:]
		np.occupy(np.n.MC.HandlerCost)
		np.start(e, r)
	}
}

// finish completes a serviced request: updates the directory masks and
// delivers the reply (message or local callback). Home memory is
// current at this point: all remote writers' dirty words were merged
// during collection.
func (np *nodeProto) finish(e *dirEntry, r *dirReq) {
	mem := np.n.Mem
	mc := np.n.MC

	switch r.kind {
	case KReadReq:
		e.sharers.set(r.src)
		e.stale.clear(r.src) // fresh, fully merged copy
		if r.local != nil {
			np.occupy(mc.TagChange)
			mem.SetTag(r.block, memory.ReadOnly)
			mem.ClearDirty(r.block)
			r.local()
			return
		}
		np.occupy(mc.BlockCopy)
		np.sendBlock(r.src, KReadResp, r.block, 0, 0)

	case KWriteReq:
		e.ownedBy(r.src)
		if r.local != nil {
			// Home-local write miss: home memory is the data and the
			// fault already opened the frame; keep the dirty mask (the
			// processor may have written during the transaction).
			np.occupy(mc.TagChange)
			mem.SetTag(r.block, memory.ReadWrite)
			r.local()
			return
		}
		np.occupy(mc.BlockCopy)
		np.sendBlock(r.src, KWriteResp, r.block, 0, 0)

	case KUpgradeReq:
		hadCopy := e.sharers.has(r.src) || e.writers.has(r.src)
		e.sharers.clear(r.src)
		e.writers.set(r.src)
		if !hadCopy {
			// The grant ships fresh data; a retained-copy upgrade keeps
			// whatever staleness the copy already carried.
			e.stale.clear(r.src)
		}
		if r.local != nil {
			r.local()
			return
		}
		if !hadCopy {
			// The requester was invalidated while its upgrade was in
			// flight; the grant must carry fresh data.
			np.occupy(mc.BlockCopy)
		}
		np.post(r.src, KWriteGrant, r.block, !hadCopy)

	case KMkWritableReq:
		e.ownedBy(r.src)
		r.agg.blockDone(np)

	default:
		panic(fmt.Sprintf("protocol: finish of unknown kind %d", r.kind))
	}
}
