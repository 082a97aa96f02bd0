package protocol

import (
	"bytes"
	"fmt"
	"strings"

	"hpfdsm/internal/memory"
)

// The invariant audit runs in two modes.
//
// Quiescent mode (CheckInvariants) assumes the simulation has drained:
// no transactions are in flight, so a busy directory entry is itself an
// error and every invariant applies to every block.
//
// Barrier mode (CheckAtBarrier) runs at the instant the last node
// arrives at a barrier or reduction. The release-consistency contract
// guarantees each node drained its own pending transactions before
// arriving, but traffic the contract does not track can still be in
// flight: advisory prefetches, directory transactions started by those
// prefetches, and the fire-and-forget messages of compiler-directed
// transfers (send/flush data, KCCFlushDir repoints). Barrier mode
// therefore skips blocks whose directory entry is mid-transaction and
// skips the directory/data checks for blocks that ever took part in a
// compiler-controlled transfer — those blocks' consistency is governed
// by the Section 4.2 contract, not by the directory.
//
// The invariants:
//
//  1. (quiescent only) No directory entry is mid-transaction (busy,
//     pending work, or a non-empty wait queue).
//  2. A word is dirty at no more than one node (the race-free
//     multiple-writer discipline).
//  3. Every node holding dirty words for a block is recorded in the
//     block's directory writer set — otherwise its updates could never
//     be collected.
//  4. A node holding a readonly copy is recorded as a sharer or writer,
//     unless the copy was installed by an advisory prefetch racing a
//     later invalidation (readonly copies the directory does not know
//     about cannot receive invalidations, so this is flagged).
//  5. Data agreement: every tracked readonly copy matches home memory
//     on words no node holds dirty. Copies the directory marked stale
//     (multi-writer flush leftovers, see dirEntry.stale) are exempt.
//
// Compiler-controlled frames deliberately violate *tag*/directory
// correspondence in the readwrite direction (readers hold RW frames the
// directory never sees), so RW tags without directory entries are legal
// under the Section 4.2 contract and not flagged.
//
// The audit costs what is live. Every node's memory keeps a card per
// page, set by each mutator that can make a block dirty or readonly
// there (memory.NodeMem), and the audit visits, node by node, only the
// pages whose card is set, in two passes: the first folds the dirty
// masks into a per-block union and checks 2 and 3, the second checks 4
// and then 5 against the final union. Each page's home and directory
// slice is taken once per page. A card is cleared once every block
// under it is clean at its node (no dirty word, and no readonly copy
// away from home), whatever the directory says; a block with no dirty
// word at any node and no readonly copy away from its home can break
// none of 2-5. In quiescent mode one scan of the directories checks 1
// first. The passes only tell whether something is wrong: when they
// find anything, auditRef reruns the audit block by block and returns
// its first diagnostic, so a failing audit says what it always said.
//
//simlint:hotpath
func (p *Proto) audit(quiescent bool) error {
	sp := p.C.Space
	if len(p.union) != sp.NumBlocks() {
		p.union = make([]uint16, sp.NumBlocks())
	}
	ok := (!quiescent || p.dirIdle()) && p.foldDirty(quiescent) && p.checkCopies(quiescent)
	clear(p.union)
	if ok {
		return nil
	}
	return p.auditRef(quiescent)
}

// dirIdle reports that no directory entry is mid-transaction.
//
//simlint:hotpath
func (p *Proto) dirIdle() bool {
	for _, np := range p.nodes {
		for i := range np.dir {
			if !np.dir[i].idle() {
				return false
			}
		}
	}
	return true
}

// foldDirty is the audit's first pass. Over each node's carded pages
// it folds the dirty masks into p.union, and reports false on an
// overlap with another node's words or on a dirty node the directory
// does not list as a writer (2 and 3). It clears the card of a page
// that holds nothing the audit reads.
//
// Both passes ask whether a block's entry is mid-transaction (possible
// only in barrier mode, where it excuses the block) only once the block
// would fail, so that a passing block reads no more of its entry than
// the sets. A mid-transaction block's words may enter p.union: the
// second pass skips that block, and they can only excuse a later
// node's words on it.
//
//simlint:hotpath
func (p *Proto) foldDirty(quiescent bool) bool {
	sp := p.C.Space
	nn := len(p.nodes)
	bpp := sp.Machine().PageSize / sp.BlockSize()
	for i, np := range p.nodes {
		cards, tags, dirty := np.n.Mem.Cards(), np.n.Mem.Tags(), np.n.Mem.DirtyMasks()
		for pg, set := range cards {
			if !set {
				continue
			}
			homeID := pg % nn
			first := pg * bpp
			union := p.union[first:][:bpp]
			var dir []dirEntry // taken at the page's first dirty block
			clean := true
			for k, d := range dirty[first:][:bpp] {
				if d == 0 {
					clean = clean && (tags[first+k] != memory.ReadOnly || homeID == i)
					continue
				}
				if dir == nil {
					dir = p.nodes[homeID].dir[pg/nn*bpp:][:bpp]
				}
				clean = false
				if union[k]&d != 0 || homeID != i && !dir[k].writers().has(i) && (quiescent || !p.isCC(first+k)) {
					if dir[k].idle() {
						return false
					}
					continue // barrier mode: mid-transaction, nothing to audit
				}
				union[k] |= d
			}
			if clean {
				cards[pg] = false
			}
		}
	}
	return true
}

// checkCopies is the audit's second pass. Over each node's carded pages
// homed elsewhere it reports false on a readonly copy the directory
// does not track (4), or on a tracked copy that disagrees with home on
// a word outside p.union (5).
//
//simlint:hotpath
func (p *Proto) checkCopies(quiescent bool) bool {
	sp := p.C.Space
	nn := len(p.nodes)
	bs := sp.BlockSize()
	bpp := sp.Machine().PageSize / bs
	for i, np := range p.nodes {
		mem := np.n.Mem
		cards, tags := mem.Cards(), mem.Tags()
		for pg, set := range cards {
			homeID := pg % nn
			if !set || homeID == i {
				continue
			}
			home := p.nodes[homeID]
			first := pg * bpp
			union := p.union[first:][:bpp]
			var dir []dirEntry // taken at the page's first readonly block
			for k, t := range tags[first:][:bpp] {
				if t != memory.ReadOnly {
					continue
				}
				if dir == nil {
					dir = home.dir[pg/nn*bpp:][:bpp]
				}
				e := &dir[k]
				b := first + k
				sharers := e.sharers()
				if !sharers.has(i) && !e.writers().has(i) {
					if (quiescent || !p.isCC(b)) && e.idle() {
						return false
					}
					continue
				}
				if !sharers.has(i) || e.stale().has(i) {
					continue
				}
				hd, cd := home.n.Mem.BlockData(b), mem.BlockData(b)
				if bytes.Equal(hd, cd) || p.isCC(b) || !e.idle() {
					continue
				}
				for w := 0; w < bs/8; w++ {
					if union[k]&(1<<uint(w)) == 0 && !bytes.Equal(hd[w*8:w*8+8], cd[w*8:w*8+8]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// isCC reports whether any node ever moved block b through a
// compiler-controlled transfer (opened a frame, or sent or received it
// via send/flush): its consistency is the Section 4.2 contract's
// business.
func (p *Proto) isCC(b int) bool {
	for _, np := range p.nodes {
		if np.flags[b]&(flagCCFrame|flagCCTouched) != 0 {
			return true
		}
	}
	return false
}

// auditRef is the audit as a block-ordered walk that finds each
// block's home and entry through HomeOfBlock and lookup, reading every
// node's state for every block: the audit's diagnostic, the first
// violation in block order (nil when there is none), and the reference
// the passes must agree with.
func (p *Proto) auditRef(quiescent bool) error {
	sp := p.C.Space
	nb := sp.NumBlocks()
	bs := sp.BlockSize()
	for b := 0; b < nb; b++ {
		homeID := sp.HomeOfBlock(b)
		home := p.nodes[homeID]
		e := home.lookup(b)
		if e != nil && !e.idle() {
			if quiescent {
				return fmt.Errorf("block %d%s: directory entry not quiescent (busy=%v pending=%d queued=%d)",
					b, p.blockInfo(b), e.busy(), e.pending, len(e.waitQ))
			}
			continue // mid-transaction at a barrier instant; nothing to audit
		}
		var writers, sharers, stale nodeset
		if e != nil {
			writers = e.writers()
			sharers = e.sharers()
			stale = e.stale()
		}
		cc := p.isCC(b)
		var dirtyMask, allDirty uint16
		for _, np := range p.nodes {
			allDirty |= np.n.Mem.Dirty(b)
		}
		for i, np := range p.nodes {
			d := np.n.Mem.Dirty(b)
			if d != 0 {
				if d&dirtyMask != 0 {
					return fmt.Errorf("block %d%s: overlapping dirty words across nodes (mask %016b at node %d)", b, p.blockInfo(b), d, i)
				}
				dirtyMask |= d
				if !writers.has(i) && homeID != i && (quiescent || !cc) {
					return fmt.Errorf("block %d%s: node %d holds dirty words but is not a directory writer", b, p.blockInfo(b), i)
				}
			}
			if np.n.Mem.Tag(b) != memory.ReadOnly || homeID == i {
				continue
			}
			if !writers.has(i) && !sharers.has(i) {
				if quiescent || !cc {
					return fmt.Errorf("block %d%s: node %d holds an untracked readonly copy", b, p.blockInfo(b), i)
				}
				continue
			}
			// Invariant 5: data agreement of the tracked readonly copy.
			if cc || !sharers.has(i) || stale.has(i) {
				continue
			}
			hd := home.n.Mem.BlockData(b)
			cd := np.n.Mem.BlockData(b)
			for w := 0; w < bs/8; w++ {
				if allDirty&(1<<uint(w)) != 0 {
					continue // legitimately divergent: someone owns this word
				}
				if !bytes.Equal(hd[w*8:w*8+8], cd[w*8:w*8+8]) {
					return fmt.Errorf("block %d word %d%s: node %d's readonly copy disagrees with home %d (copy %x, home %x)",
						b, w, p.blockInfo(b), i, homeID, cd[w*8:w*8+8], hd[w*8:w*8+8])
				}
			}
		}
	}
	return nil
}

// blockInfo renders the optional BlockInfo provenance for a block,
// bracketed for inline use in an audit message ("" when no provider is
// installed or it has nothing to say).
func (p *Proto) blockInfo(b int) string {
	if p.BlockInfo == nil {
		return ""
	}
	if s := p.BlockInfo(b); s != "" {
		return " [" + s + "]"
	}
	return ""
}

// CheckInvariants audits the quiescent cluster state (call it after the
// simulation drains, with no transactions in flight). See audit.
func (p *Proto) CheckInvariants() error { return p.audit(true) }

// CheckAtBarrier audits the cluster at a barrier or reduction instant,
// tolerating traffic that may legally be in flight. See audit.
func (p *Proto) CheckAtBarrier() error { return p.audit(false) }

// DumpOutstanding renders each node's in-flight protocol work: blocking
// misses awaiting data, pending non-blocking transactions, unsatisfied
// compiler-controlled receives, and busy directory entries. Used by the
// stall watchdog to turn a hang into a diagnosis.
func (p *Proto) DumpOutstanding() string {
	var out strings.Builder
	for _, np := range p.nodes {
		var lines []string
		if np.fill != nil {
			lines = append(lines, fmt.Sprintf("blocking misses on blocks [%d]", np.fillBlock))
		}
		if pend := np.n.Pending(); pend > 0 {
			lines = append(lines, fmt.Sprintf("%d non-blocking transaction(s) in flight", pend))
		}
		if got := np.ccRecv.Value(); got < np.ccExpected {
			lines = append(lines, fmt.Sprintf("ready_to_recv short: %d/%d cc blocks arrived", got, np.ccExpected))
		}
		for i := range np.dir {
			if e := &np.dir[i]; !e.idle() {
				b := np.n.Mem.Space().HomedBlock(np.id, i)
				lines = append(lines, fmt.Sprintf("directory block %d%s busy (pending=%d queued=%d)", b, p.blockInfo(b), e.pending, len(e.waitQ)))
			}
		}
		for _, rs := range np.relay {
			lines = append(lines, fmt.Sprintf("relay round for block %d%s open (%d/%d leaves answered, home %d)",
				rs.block, p.blockInfo(rs.block), rs.got, rs.expect, rs.home))
		}
		for _, l := range lines {
			fmt.Fprintf(&out, "  node %d: %s\n", np.id, l)
		}
	}
	return out.String()
}
