// The combining tree: collectives for the tree topology.
//
// The flat protocol funnels every arrival into node 0 and unicasts
// N-1 releases back out, so each collective costs the master O(N)
// protocol-engine occupancy. The tree topology instead arranges the
// nodes as a radix-K heap (internal/topo): each node waits for its own
// compute process plus one up-message per child, then sends a single
// combined up-message to its parent. The root's completion instant is
// the all-arrived instant; releases fan back down the same edges. Every
// node handles at most K+1 events per phase and the critical path is
// one up-pass plus one down-pass: O(log_K N) latency, O(K) per-node
// occupancy.
//
// Reductions must stay bit-identical to the flat protocol, so no
// arithmetic happens on the way up. Contributions travel as
// (node id, float64 bits) pairs; interior nodes concatenate their
// subtree's pairs, sorted by id, and the root folds the full vector
// ascending — exactly the canonical fold the flat master performs. The
// combined value is therefore independent of both the topology and the
// order children happen to arrive in.
//
// Cluster-level state (epoch, reduce generation, journal, barrier
// check) advances only at the root, which is node 0 — the same
// partition that owns it under the flat protocol, so the PDES
// single-writer discipline is unchanged.
package tempest

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hpfdsm/internal/network"
	"hpfdsm/internal/topo"
)

const redPairSize = 12 // 4-byte id + 8-byte float bits on the wire

// encodePairs writes pairs into buf, redPairSize bytes each.
func encodePairs(buf []byte, pairs []redPair) {
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(buf[i*redPairSize:], uint32(p.id))
		binary.LittleEndian.PutUint64(buf[i*redPairSize+4:], p.bits)
	}
}

// decodePairs appends the pair vector data carries to dst.
//
//simlint:hotpath
func decodePairs(data []byte, dst []redPair) []redPair {
	if len(data)%redPairSize != 0 {
		panic(fmt.Sprintf("tempest: reduce up-message payload of %d bytes is not a pair vector", len(data)))
	}
	for off := 0; off < len(data); off += redPairSize {
		//simlint:ignore hotalloc -- dst is a round's vector, made at install with room for the node's whole subtree: no arrival grows it
		dst = append(dst, redPair{
			id:   int32(binary.LittleEndian.Uint32(data[off:])),
			bits: binary.LittleEndian.Uint64(data[off+4:]),
		})
	}
	return dst
}

// byID orders reduction pairs by contributing node.
func byID(a, b redPair) int { return cmp.Compare(a.id, b.id) }

// installTreeSync places every node in the combining tree and wires its
// handlers.
func (c *Cluster) installTreeSync() {
	t := c.Tree
	for _, n := range c.Nodes {
		n.treeParent = t.Parent(n.ID)
		n.children = t.Children(n.ID, nil)
		n.round.seen = make([]bool, 1+len(n.children))
		n.round.pairs = make([]redPair, 0, t.SubtreeSize(n.ID))
		n.On(KindTreeBarrierUp, func(hc *HContext, m *network.Message) {
			hc.AddCost(c.MC.BarrierEntry)
			c.treeArrive(n, m.Src, opBarrier, 0)
		})
		n.On(KindTreeReduceUp, func(hc *HContext, m *network.Message) {
			hc.AddCost(c.MC.BarrierEntry)
			n.round.pairs = decodePairs(m.Data, n.round.pairs)
			c.treeArrive(n, m.Src, ReduceOp(m.Addr), m.Arg2)
		})
		c.onRelease(n, KindTreeBarrierDown, KindTreeReduceDown)
	}
}

// missingTree reports the children n has not heard from in its open
// round, for the per-node timeout probe.
func (n *Node) missingTree() []int {
	var out []int
	for i, ch := range n.children {
		if !n.round.seen[1+i] {
			out = append(out, ch)
		}
	}
	return out
}

// treeArrive records one arrival at tree node n: n's own compute process
// when src == n.ID, a child subtree otherwise. In round gen of n a
// reduction's arrival has appended its pair, or its subtree's vector, to
// the round's: concatenated, never combined. When the whole subtree has
// arrived the node forwards one combined up-message (a pooled payload);
// the root runs the all-arrived instant instead.
//
//simlint:hotpath
func (c *Cluster) treeArrive(n *Node, src int, op ReduceOp, gen int64) {
	r := &n.round
	if op != opBarrier && gen != r.gen {
		panic(fmt.Sprintf("tempest: node %d reduction round mismatch: got %d want %d", n.ID, gen, r.gen))
	}
	if r.got == 0 {
		c.armSyncTimeout(n, r.gen, (*Node).missingTree)
	}
	slot := 0
	if src != n.ID {
		// Children are consecutive ids (the heap is left-packed).
		if len(n.children) == 0 || src < n.children[0] || src > n.children[len(n.children)-1] {
			panic(fmt.Sprintf("tempest: node %d got a tree up-message from non-child %d", n.ID, src))
		}
		slot = 1 + src - n.children[0]
	}
	if !r.mark(slot) {
		return
	}
	if op != opBarrier {
		// Sort by contributing node id: the vector (and so every message
		// payload) becomes independent of child arrival order.
		slices.SortFunc(r.pairs, byID)
	}
	if n.ID == topo.Root {
		c.allArrived(op, r.pairs, KindTreeBarrierDown, KindTreeReduceDown)
	} else {
		n.OccupyProto(c.MC.SendOver)
		m := c.Net.NewMessage(n.ID)
		m.Src, m.Dst, m.Kind, m.Size = n.ID, n.treeParent, KindTreeBarrierUp, barrierMsgSize
		if op != opBarrier {
			m.Kind, m.Addr, m.Arg2 = KindTreeReduceUp, int(op), gen
			m.Size = redPairSize * len(r.pairs)
			m.Data, m.DataPooled = c.Net.AllocVar(n.ID, m.Size)[:m.Size], true
			encodePairs(m.Data, r.pairs)
		}
		c.Net.Send(m)
	}
	r.pairs = r.pairs[:0]
}
