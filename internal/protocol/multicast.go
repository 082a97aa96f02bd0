// Multicast fan-out invalidation for the tree topology.
//
// Under the flat protocol a block's home unicasts one KInval per
// sharer and collects one KInvalAck each: 2S messages all serializing
// through the home's protocol engine. At 1024 nodes a widely shared
// block makes the home the machine's bottleneck. The tree topology
// instead groups remote sharers by cluster (topo.Tree coordinates):
// each cluster holding two or more sharers gets ONE KInvalTree to a
// relay (the cluster's lowest live sharer), which invalidates itself,
// fans KInvalFwd out to its sibling leaves, combines their
// KInvalAckFwd responses, and returns ONE KInvalAckTree carrying the
// set of cleanly invalidated leaves. The home's occupancy drops from
// O(S) to O(clusters), and the per-cluster legs run in parallel.
//
// Only the routing differs from the flat shape. Every copy is given up
// by the same surrender whichever message asked for it: a leaf holding
// dirty words flushes them in a KPutDataResp straight to the home
// (exactly the message the flat path would have produced), so home
// memory merges the same bytes in either topology, and only clean
// invalidations ride the combined ack. Every copy is accounted for by
// the same retire: the home's pending count is seeded with the number
// of live relayed sharers, each direct KPutDataResp retires one and a
// KInvalAckTree retires popcount(cleanLeaves), so whichever order the
// two ack species arrive in, pending reaches zero exactly when every
// sharer has been heard from.
//
// Tree invalidation messages travel standalone (never as coalescer
// segments): a relay round is already a batching mechanism, and the
// reliable layer sees ordinary control messages it already knows how
// to retransmit.
package protocol

import (
	"cmp"
	"fmt"
	mbits "math/bits"
	"slices"

	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/tempest"
)

// relayState tracks one in-progress fan-out round at a relay node.
// The home serializes directory transactions per block, so at most
// one round per block can involve this relay at a time.
type relayState struct {
	block  int
	home   int // the requesting home node (gets the combined ack)
	expect int // leaves to hear from, including the relay itself
	got    int
	clean  uint64 // leaf indices invalidated without a dirty flush
}

// invalSharersTree performs the home side of the fan-out: it buckets
// e's remote sharers (excluding src) by cluster, invalidates the
// home's own copy locally, sends singleton clusters a plain KInval via
// invalOne (which does its own need accounting), drops sharers already
// declared dead (their copies died with them), and opens one relay
// round per multi-sharer cluster. It returns the number of relayed
// sharers, which the caller adds to the entry's pending count.
func (np *nodeProto) invalSharersTree(e *dirEntry, src, b int, invalOne func(s int)) int {
	tr := np.p.C.Tree
	if np.clusterMask == nil {
		np.clusterMask = make([]uint64, tr.Clusters())
	}
	touched := np.clusterScratch[:0]
	for s := e.sharers().next(0); s >= 0; s = e.sharers().next(s + 1) {
		if s == src {
			continue
		}
		if s == np.id {
			invalOne(s) // home-local: tag downgrade, no message
			continue
		}
		c := tr.ClusterOf(s)
		if np.clusterMask[c] == 0 {
			touched = append(touched, c)
		}
		np.clusterMask[c] |= 1 << uint(tr.LeafOf(s))
	}
	np.clusterScratch = touched

	extra := 0
	for _, c := range touched {
		mask := np.clusterMask[c]
		np.clusterMask[c] = 0
		base := tr.ClusterBase(c)
		live := mask
		for m := mask; m != 0; {
			l := mbits.TrailingZeros64(m)
			m &^= 1 << uint(l)
			if np.n.Net.Dead(base + l) {
				// A crashed sharer's copy is gone; retire it from the
				// directory now so the round can complete without it.
				live &^= 1 << uint(l)
				e.forget(base + l)
			}
		}
		switch mbits.OnesCount64(live) {
		case 0:
			continue
		case 1:
			// One live sharer in the cluster: a relay would only add a
			// hop. The flat unicast (and its ack path) is already right.
			invalOne(base + mbits.TrailingZeros64(live))
			continue
		}
		np.send(base+mbits.TrailingZeros64(live), KInvalTree, b, int64(live), 0, nil)
		extra += mbits.OnesCount64(live)
		np.invalRounds++
	}
	return extra
}

// hInvalTree runs at the relay: invalidate the relay's own copy, fan
// the rest of the leaf set out as KInvalFwd, and start combining acks.
func (np *nodeProto) hInvalTree(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if np.flags[b]&flagSCHold != 0 {
		np.deferMsg(m, np.hInvalTree)
		return
	}
	tr := np.p.C.Tree
	mc := np.n.MC
	np.occupy(mc.HandlerCost)
	leaves := uint64(m.Arg)
	i, dup := np.relayRound(b)
	if dup {
		panic(fmt.Sprintf("protocol: node %d got overlapping relay rounds for block %d", np.id, b))
	}
	np.relay = slices.Insert(np.relay, i, relayState{block: b, home: m.Src, expect: mbits.OnesCount64(leaves), got: 1})
	rs := &np.relay[i]

	// The relay is itself a sharer — the home picks the cluster's lowest
	// live one — and gives its copy up like any other leaf.
	base := tr.ClusterBase(tr.ClusterOf(np.id))
	myLeaf := uint(tr.LeafOf(np.id))
	np.heatInval(b)
	np.markOvertaken(b)
	if np.surrender(b, rs.home, false, false, mc.BlockCopy) {
		rs.clean |= 1 << myLeaf
	}
	for rest := leaves &^ (1 << myLeaf); rest != 0; rest &= rest - 1 {
		np.send(base+mbits.TrailingZeros64(rest), KInvalFwd, b, 0, int64(rs.home), nil)
	}
	np.maybeCloseRelay(i)
}

// hInvalFwd runs at a fan-out leaf: the relay (m.Src) wants our copy
// of the block gone on behalf of the home (m.Arg2). Dirty words flush
// straight to the home; the ack back to the relay says which case ran.
func (np *nodeProto) hInvalFwd(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	if np.flags[b]&flagSCHold != 0 {
		np.deferMsg(m, np.hInvalFwd)
		return
	}
	np.heatInval(b)
	np.markOvertaken(b)
	np.occupy(np.n.MC.HandlerCost)
	dirty := int64(1)
	if np.surrender(b, int(m.Arg2), false, false, np.n.MC.BlockCopy) {
		dirty = 0
	}
	np.send(m.Src, KInvalAckFwd, b, dirty, 0, nil)
}

// markOvertaken runs where a relayed invalidation of block b lands. If
// this node's read miss on b is still waiting for its response, the
// home granted that read before it sent the invalidation: the flat
// route, one FIFO channel from the home, would deliver the response
// first, but the relay's extra hop (or a jittered, reordering wire) can
// let the invalidation overtake it. The copy in flight is then stale on
// arrival, and hReadResp drops it instead of installing it.
func (np *nodeProto) markOvertaken(b int) {
	if np.fill != nil && np.fillBlock == b && np.n.Mem.Tag(b) == memory.Invalid {
		np.flags[b] |= flagStaleFill
	}
}

// hInvalAckFwd runs at the relay: one leaf has answered.
func (np *nodeProto) hInvalAckFwd(hc *tempest.HContext, m *network.Message) {
	b := m.Addr
	i, open := np.relayRound(b)
	if !open {
		panic(fmt.Sprintf("protocol: node %d got a fan-out ack for block %d with no relay round open", np.id, b))
	}
	rs := &np.relay[i]
	np.occupy(np.n.MC.HandlerCost)
	if m.Arg == 0 {
		rs.clean |= 1 << uint(np.p.C.Tree.LeafOf(m.Src))
	}
	rs.got++
	np.maybeCloseRelay(i)
}

// relayRound returns where block b's fan-out round is (open) or goes.
func (np *nodeProto) relayRound(b int) (int, bool) {
	return slices.BinarySearchFunc(np.relay, b, func(rs relayState, b int) int { return cmp.Compare(rs.block, b) })
}

// maybeCloseRelay sends round i's combined ack once every leaf answered.
func (np *nodeProto) maybeCloseRelay(i int) {
	rs := np.relay[i]
	if rs.got < rs.expect {
		return
	}
	np.relay = slices.Delete(np.relay, i, i+1)
	np.send(rs.home, KInvalAckTree, rs.block, int64(rs.clean), 0, nil)
}

// hInvalAckTree runs at the home: one cluster's combined clean-ack.
// Dirty leaves in the same round are (or will be) retired one at a
// time by their direct KPutDataResp flushes; the two species commute.
// When every leaf was dirty the mask is empty and there is nothing left
// to account for — the flushes may already have completed the
// transaction and left the entry idle.
func (np *nodeProto) hInvalAckTree(hc *tempest.HContext, m *network.Message) {
	np.occupy(np.n.MC.HandlerCost)
	if m.Arg == 0 {
		return
	}
	b := m.Addr
	e := np.collecting(b)
	tr := np.p.C.Tree
	base := tr.ClusterBase(tr.ClusterOf(m.Src))
	for leaves := uint64(m.Arg); leaves != 0; leaves &= leaves - 1 {
		e.forget(base + mbits.TrailingZeros64(leaves))
	}
	np.retire(b, e, mbits.OnesCount64(uint64(m.Arg)))
}

// InvalRounds returns how many multicast fan-out rounds the cluster's
// homes opened (0 under the flat topology) — a diagnostic for the
// scale experiment, not checkpointed state.
func (p *Proto) InvalRounds() int64 {
	var n int64
	for _, np := range p.nodes {
		n += np.invalRounds
	}
	return n
}
