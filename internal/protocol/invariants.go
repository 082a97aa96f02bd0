package protocol

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
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
func (p *Proto) audit(quiescent bool) error {
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
					b, p.blockInfo(b), e.busy, e.pending, len(e.waitQ))
			}
			continue // mid-transaction at a barrier instant; nothing to audit
		}
		var writers, sharers, stale nodeset
		if e != nil {
			writers = e.writers
			sharers = e.sharers
			stale = e.stale
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

// isCC reports whether any node ever moved block b through a
// compiler-controlled transfer (opened a frame, or sent/received it via
// send/flush). Such blocks' consistency is the Section 4.2 contract's
// business; directory-based audits skip them at barrier instants.
func (p *Proto) isCC(b int) bool {
	for _, np := range p.nodes {
		if np.flags[b]&(flagCCFrame|flagCCTouched) != 0 {
			return true
		}
	}
	return false
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
		for i, e := range np.dir {
			if e != nil && !e.idle() {
				b := np.n.Mem.Space().HomedBlock(np.id, i)
				lines = append(lines, fmt.Sprintf("directory block %d%s busy (pending=%d queued=%d)", b, p.blockInfo(b), e.pending, len(e.waitQ)))
			}
		}
		for _, b := range slices.Sorted(maps.Keys(np.relay)) {
			rs := np.relay[b]
			lines = append(lines, fmt.Sprintf("relay round for block %d%s open (%d/%d leaves answered, home %d)",
				b, p.blockInfo(b), rs.got, rs.expect, rs.home))
		}
		for _, l := range lines {
			fmt.Fprintf(&out, "  node %d: %s\n", np.id, l)
		}
	}
	return out.String()
}

// TagCensus counts block tags across the cluster (diagnostics).
func (p *Proto) TagCensus() map[memory.Tag]int {
	out := map[memory.Tag]int{}
	nb := p.C.Space.NumBlocks()
	for _, np := range p.nodes {
		for b := 0; b < nb; b++ {
			out[np.n.Mem.Tag(b)]++
		}
	}
	return out
}
