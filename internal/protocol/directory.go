package protocol

import (
	"fmt"

	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
)

// dirEntry is the home-side directory state for one block, a value in
// its home's table: which nodes hold readonly copies (sharers) and which
// hold writable copies (writers; more than one is legal under the
// multiple-writer protocol). Requests against a block are serviced one
// at a time: while a request is collecting flushes or invalidation
// acknowledgements it is the entry's cur, the entry is busy, and later
// requests queue.
type dirEntry struct {
	// sets holds the sharer, writer and stale sets back to back, cut
	// from the home's slab when the entry is made (nil until then).
	//
	// stale marks nodes whose retained copy may hold stale words: when
	// a read collects flushes from two or more concurrent writers, each
	// writer keeps a readonly copy that never saw the *other* writers'
	// words. The protocol tolerates this (data-race-free programs only
	// read words they are entitled to), but the invariant checker's
	// data-agreement audit must not compare those copies against home.
	sets nodeset

	cur     dirReq // the request collecting; kind 0 when none
	pending int
	waitQ   []dirReq
}

// made reports that the entry's block has been asked for: its sets exist.
func (e *dirEntry) made() bool { return e.sets != nil }

// set returns the k-th of the entry's three sets (nil when unmade).
func (e *dirEntry) set(k int) nodeset {
	w := len(e.sets) / 3
	return e.sets[k*w : (k+1)*w : (k+1)*w]
}

func (e *dirEntry) sharers() nodeset { return e.set(0) }
func (e *dirEntry) writers() nodeset { return e.set(1) }
func (e *dirEntry) stale() nodeset   { return e.set(2) }

// busy reports that a request is collecting copies for the entry.
func (e *dirEntry) busy() bool { return e.cur.kind != 0 }

// idle reports that no transaction is collecting or queued on the entry.
func (e *dirEntry) idle() bool {
	return !e.busy() && e.pending == 0 && len(e.waitQ) == 0
}

// dirReq is one directory transaction, passed and queued by value. A
// remote requester's reply is a message; the home's own read, write or
// upgrade (src is the home) completes in place (finish).
type dirReq struct {
	block int
	src   int
	agg   *mkwAgg // mk_writable aggregation, nil otherwise

	kind     network.Kind
	needData bool // mk_writable: requester lacks the data
}

// makeEntry gives slot i's entry its sets, zeroed, from the node's
// slab. It is the one place an entry is made, so it keeps the count.
func (np *nodeProto) makeEntry(i int) *dirEntry {
	w := 3 * nsWords(len(np.p.nodes))
	e := &np.dir[i]
	if !e.made() {
		np.made++
	}
	e.sets = np.slab[i*w : (i+1)*w : (i+1)*w]
	return e
}

// entry returns (making it if needed) the directory entry for block b,
// which must be homed at this node. A fresh entry reflects the initial
// tag state: home pages start writable at home.
func (np *nodeProto) entry(b int) *dirEntry {
	home, i := np.n.Mem.Space().HomeSlot(b)
	if home != np.id {
		panic(fmt.Sprintf("protocol: node %d asked for directory entry of block %d homed at %d", np.id, b, home))
	}
	e := &np.dir[i]
	if !e.made() {
		np.makeEntry(i)
		switch np.n.Mem.Tag(b) {
		case memory.ReadWrite:
			e.writers().set(np.id)
		case memory.ReadOnly:
			e.sharers().set(np.id)
		}
	}
	return e
}

// enqueue services r now, or queues it if the block's entry is busy.
// Requests against a block whose just-granted store has not retired
// (scHold, sequential consistency) are deferred briefly, except the
// holder's own — progress is guaranteed because the held store retires
// at the already-scheduled resume time.
func (np *nodeProto) enqueue(r dirReq) {
	if np.flags[r.block]&flagSCHold != 0 && r.src != np.id {
		np.later(func() { np.enqueue(r) })
		return
	}
	e := np.entry(r.block)
	if e.busy() {
		e.waitQ = append(e.waitQ, r)
		return
	}
	np.start(e, r)
}

// start begins servicing r: it collects remote copies (flushes from
// writers, invalidation acks from sharers) as the request type demands,
// then finishes immediately if nothing remote is outstanding.
func (np *nodeProto) start(e *dirEntry, r dirReq) {
	mem := np.n.Mem
	mc := np.n.MC
	need := 0

	flushWriter := func(w int, invalidate bool) {
		if w == np.id {
			// Home's writes land directly in home memory; just
			// downgrade the tag.
			np.occupy(mc.TagChange)
			mem.ClearDirty(r.block)
			e.writers().clear(np.id)
			if invalidate {
				np.heatInval(r.block)
				mem.SetTag(r.block, memory.Invalid)
			} else {
				mem.SetTag(r.block, memory.ReadOnly)
				e.sharers().set(np.id)
			}
			return
		}
		arg := int64(0)
		if invalidate {
			arg = 1
		}
		np.send(w, KPutDataReq, r.block, arg, 0, nil)
		need++
	}
	invalSharer := func(s int) {
		if s == np.id {
			np.occupy(mc.TagChange)
			np.heatInval(r.block)
			mem.SetTag(r.block, memory.Invalid)
			e.sharers().clear(np.id)
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
		holders := e.writers().count()
		if mem.Dirty(r.block) != 0 && !e.writers().has(np.id) {
			holders++
		}
		multiWriter := holders >= 2
		for w := e.writers().next(0); w >= 0; w = e.writers().next(w + 1) {
			if w != r.src {
				if multiWriter && w != np.id {
					e.stale().set(w)
				}
				flushWriter(w, false)
			}
		}
	case KWriteReq, KUpgradeReq, KMkWritableReq:
		for w := e.writers().next(0); w >= 0; w = e.writers().next(w + 1) {
			if w != r.src {
				flushWriter(w, true)
			}
		}
		if tree := np.p.C.Tree; tree != nil {
			need += np.invalSharersTree(e, r.src, r.block, invalSharer)
		} else {
			for s := e.sharers().next(0); s >= 0; s = e.sharers().next(s + 1) {
				if s != r.src {
					invalSharer(s)
				}
			}
		}
	default:
		panic(fmt.Sprintf("protocol: directory cannot service kind %d", r.kind))
	}

	if need > 0 {
		e.cur = r
		e.pending = need
		return
	}
	np.finish(e, r)
}

// ownedBy records node id as the block's only holder, a writer: every
// other copy was just invalidated.
func (e *dirEntry) ownedBy(id int) {
	e.writers().clearAll()
	e.writers().set(id)
	e.sharers().clearAll()
	e.stale().clearAll()
}

// forget removes node id's copy from the entry.
func (e *dirEntry) forget(id int) {
	e.writers().clear(id)
	e.sharers().clear(id)
	e.stale().clear(id) // copy gone; staleness moot
}

// collecting returns block b's entry, which must be busy: a flush or an
// acknowledgement for it has just arrived.
func (np *nodeProto) collecting(b int) *dirEntry {
	e := np.lookup(b)
	if e == nil || !e.busy() {
		panic(fmt.Sprintf("protocol: node %d got a collection response for idle block %d", np.id, b))
	}
	return e
}

// collectDone records one flush or invalidation acknowledgement for a
// busy entry; keeps indicates the responder retained a readonly copy.
func (np *nodeProto) collectDone(b, from int, keeps bool) {
	e := np.collecting(b)
	if keeps {
		e.writers().clear(from)
		e.sharers().set(from)
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
	e.cur = dirReq{}
	np.finish(e, r)
	np.drain(b, e)
}

// drain services queued requests, in place, until the entry goes busy.
func (np *nodeProto) drain(b int, e *dirEntry) {
	for !e.busy() && len(e.waitQ) > 0 {
		r := e.waitQ[0]
		e.waitQ = e.waitQ[:copy(e.waitQ, e.waitQ[1:])]
		np.occupy(np.n.MC.HandlerCost)
		np.start(e, r)
	}
}

// finish completes a serviced request: updates the directory masks and
// delivers the reply (a message, or doneLocal for the home's own). Home
// memory is current at this point: all remote writers' dirty words were
// merged during collection.
func (np *nodeProto) finish(e *dirEntry, r dirReq) {
	mem := np.n.Mem
	mc := np.n.MC

	switch r.kind {
	case KReadReq:
		e.sharers().set(r.src)
		e.stale().clear(r.src) // fresh, fully merged copy
		if r.src == np.id {
			np.occupy(mc.TagChange)
			mem.SetTag(r.block, memory.ReadOnly)
			mem.ClearDirty(r.block)
			np.doneLocal(r)
			return
		}
		np.occupy(mc.BlockCopy)
		np.send(r.src, KReadResp, r.block, 0, 0, np.n.Mem.BlockData(r.block))

	case KWriteReq:
		e.ownedBy(r.src)
		if r.src == np.id {
			// Home-local write miss: home memory is the data and the
			// fault already opened the frame; keep the dirty mask (the
			// processor may have written during the transaction).
			np.occupy(mc.TagChange)
			mem.SetTag(r.block, memory.ReadWrite)
			np.doneLocal(r)
			return
		}
		np.occupy(mc.BlockCopy)
		np.send(r.src, KWriteResp, r.block, 0, 0, np.n.Mem.BlockData(r.block))

	case KUpgradeReq:
		hadCopy := e.sharers().has(r.src) || e.writers().has(r.src)
		e.sharers().clear(r.src)
		e.writers().set(r.src)
		if !hadCopy {
			// The grant ships fresh data; a retained-copy upgrade keeps
			// whatever staleness the copy already carried.
			e.stale().clear(r.src)
		}
		if r.src == np.id {
			np.doneLocal(r)
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
