package tempest

import (
	"fmt"
	"math"

	"hpfdsm/internal/config"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/trace"
)

// ReduceOp identifies a reduction operator; it travels in reduction
// messages so the master can combine contributions that arrive before
// its own compute process enters the reduction.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// opBarrier is the collective with no contribution: nothing is gathered,
// folded or journaled, and the messages carry no payload.
const opBarrier ReduceOp = -1

// Wire sizes: a barrier message is one 4-byte word; a flat contribution
// and every reduction result add the 8-byte value.
const (
	barrierMsgSize = 4
	reduceMsgSize  = 12
)

func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "SUM"
	case OpMax:
		return "MAX"
	case OpMin:
		return "MIN"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(o))
	}
}

// Combine applies the operator.
func (o ReduceOp) Combine(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	default:
		panic("tempest: unknown reduce op")
	}
}

// round is one collective in progress at a node that gathers arrivals:
// the flat master gathers every node, a tree node gathers itself and its
// children. Slot 0 is the node's own compute process and slot 1+i its
// i'th child; the flat master's children are all the other nodes, so its
// slots are node ids. Collectives run one at a time (every compute
// process calls them in the same order), so barriers and reductions
// share the one round. The flat master files pairs by node id; a tree
// node appends them and sorts when its round completes.
type round struct {
	got   int       // arrivals recorded so far
	seen  []bool    // by slot
	gen   int64     // rounds completed here; retires stale membership timeouts
	pairs []redPair // a reduction's contributions gathered so far
}

// redPair is one node's reduction contribution: the raw float64 bits
// tagged with the contributing node, so the fold can run in id order
// whatever order (and, under the tree, whatever route) they arrived by.
type redPair struct {
	id   int32
	bits uint64
}

// mark records the arrival of slot and reports whether it completed the
// round, which is then already reset for the next one.
func (r *round) mark(slot int) bool {
	if r.seen[slot] {
		panic(fmt.Sprintf("tempest: slot %d arrived twice in sync round %d", slot, r.gen))
	}
	r.seen[slot] = true
	r.got++
	if r.got < len(r.seen) {
		return false
	}
	r.got = 0
	clear(r.seen)
	r.gen++
	return true
}

// installSync wires the synchronization layer matching the configured
// topology: the flat master/worker protocol, or the combining tree.
func (c *Cluster) installSync() {
	if c.Tree != nil {
		c.installTreeSync()
		return
	}
	master := c.Nodes[0]
	master.children = make([]int, len(c.Nodes)-1)
	for i := range master.children {
		master.children[i] = 1 + i
	}
	master.round.seen = make([]bool, len(c.Nodes))
	master.round.pairs = make([]redPair, len(c.Nodes))
	master.On(KindBarrierArrive, func(hc *HContext, m *network.Message) {
		hc.AddCost(c.MC.BarrierEntry)
		c.flatArrive(m.Src, opBarrier, 0, 0)
	})
	master.On(KindReduceContrib, func(hc *HContext, m *network.Message) {
		hc.AddCost(c.MC.BarrierEntry)
		c.flatArrive(m.Src, ReduceOp(m.Addr), m.Arg2, uint64(m.Arg))
	})
	for _, n := range c.Nodes {
		c.onRelease(n, KindBarrierRelease, KindReduceResult)
	}
}

// onRelease registers n's handlers for a topology's two release kinds:
// wake the parked compute process — with the result, after a reduction —
// and pass the release on to n's children, if it has any.
func (c *Cluster) onRelease(n *Node, barrier, reduce network.Kind) {
	h := func(hc *HContext, m *network.Message) {
		hc.AddCost(c.MC.BarrierEntry)
		arg, size := int64(0), barrierMsgSize
		if m.Kind == reduce {
			n.reduceResult = math.Float64frombits(uint64(m.Arg))
			arg, size = m.Arg, reduceMsgSize
		}
		c.releaseParked(n)
		c.fanDown(n, m.Kind, arg, size)
	}
	n.On(barrier, h)
	n.On(reduce, h)
}

func (c *Cluster) releaseParked(n *Node) {
	if n.parked == nil {
		panic(fmt.Sprintf("tempest: release for node %d with no parked process", n.ID))
	}
	s := n.parked
	n.parked = nil
	s.Fire()
}

// fanDown sends one copy of a release to each live child of n, charging
// n's protocol engine per send: O(N) at the flat master, O(radix) at a
// tree node.
func (c *Cluster) fanDown(n *Node, kind network.Kind, arg int64, size int) {
	for _, ch := range n.children {
		if c.Net.Dead(ch) {
			continue
		}
		n.OccupyProto(c.MC.SendOver)
		m := c.Net.NewMessage(n.ID)
		m.Src, m.Dst, m.Kind, m.Arg, m.Size = n.ID, ch, kind, arg, size
		c.Net.Send(m)
	}
}

// allArrived runs a round's all-arrived instant at node 0, the only
// writer of cluster-level state under either topology, and starts the
// release wave with the given kind for a barrier or a reduction. A
// reduction folds pairs, which hold every node's contribution in id
// order: the canonical ascending fold makes the result bit-identical
// across topologies and independent of message interleaving.
func (c *Cluster) allArrived(op ReduceOp, pairs []redPair, barrier, reduce network.Kind) {
	root := c.Nodes[0]
	kind, arg, size := barrier, int64(0), barrierMsgSize
	if op != opBarrier {
		if len(pairs) != len(c.Nodes) {
			panic(fmt.Sprintf("tempest: gathered %d reduction pairs for %d nodes", len(pairs), len(c.Nodes)))
		}
		result := math.Float64frombits(pairs[0].bits)
		for i := 1; i < len(pairs); i++ {
			if int(pairs[i].id) != i {
				panic(fmt.Sprintf("tempest: gathered duplicate or missing contribution (slot %d holds node %d)", i, pairs[i].id))
			}
			result = op.Combine(result, math.Float64frombits(pairs[i].bits))
		}
		c.reduceGen++
		// Journal before the AtBarrier hooks: a checkpoint captured at
		// this epoch must carry this generation's result for ghost replay.
		c.ReduceJournal = append(c.ReduceJournal, result)
		root.reduceResult = result
		kind, arg, size = reduce, int64(math.Float64bits(result)), reduceMsgSize
	}
	c.epoch++
	for _, h := range c.AtBarrier {
		h(c.epoch)
	}
	c.releaseParked(root)
	c.fanDown(root, kind, arg, size)
}

// armSyncTimeout schedules a membership audit of the round n is
// gathering: if the round is still open when the timeout expires and
// missing reports absentees, n interrogates each of them through the
// failure detector and re-arms. Completing the round advances its
// generation, which retires the chain. Only armed on the unreliable
// network — lossless collectives cannot hang. The audit runs on n's own
// Env, the one owning the round.
func (c *Cluster) armSyncTimeout(n *Node, gen int64, missing func(*Node) []int) {
	if !c.Net.Unreliable() {
		return
	}
	n.Env.After(config.DefaultBarrierTimeout, func() {
		if n.round.gen != gen {
			return
		}
		miss := missing(n)
		if len(miss) == 0 {
			return
		}
		for _, id := range miss {
			c.Net.Probe(n.ID, id)
		}
		c.armSyncTimeout(n, gen, missing)
	})
}

// missingFlat reports the nodes the flat master has not heard from in
// its open round. Its own compute process counts: probing oneself does
// nothing, but the audit stays armed while the master is the straggler.
func (n *Node) missingFlat() []int {
	var out []int
	for id, ok := range n.round.seen {
		if !ok {
			out = append(out, id)
		}
	}
	return out
}

// flatArrive records one arrival at the flat master: src's compute
// process has entered the collective, contributing bits when op is a
// reduction. The last arrival runs the all-arrived instant.
func (c *Cluster) flatArrive(src int, op ReduceOp, gen int64, bits uint64) {
	master := c.Nodes[0]
	r := &master.round
	if op != opBarrier {
		if gen != c.reduceGen {
			panic(fmt.Sprintf("tempest: reduction generation mismatch: got %d want %d", gen, c.reduceGen))
		}
		r.pairs[src] = redPair{id: int32(src), bits: bits}
	}
	if r.got == 0 {
		c.armSyncTimeout(master, r.gen, (*Node).missingFlat)
	}
	if r.mark(src) {
		c.allArrived(op, r.pairs, KindBarrierRelease, KindReduceResult)
	}
}

// collective is the compute-side entry of every collective: node n's
// compute process drains its in-flight transactions (the
// release-consistency contract), arrives — at its own tree node, at the
// flat master directly if it is the master, else by message — and parks
// until released.
func (c *Cluster) collective(p *sim.Proc, n *Node, op ReduceOp, v float64) {
	n.WaitPending(p)
	n.Compute(c.MC.BarrierEntry)
	n.Sync(p)
	n.parkSig.Reset()
	n.parked = &n.parkSig
	sig := n.parked
	bits := math.Float64bits(v)
	switch {
	case c.Tree != nil:
		if op != opBarrier {
			n.round.pairs = append(n.round.pairs, redPair{id: int32(n.ID), bits: bits})
		}
		c.treeArrive(n, n.ID, op, n.round.gen)
	case n.ID == 0:
		c.flatArrive(0, op, c.reduceGen, bits)
	default:
		m := c.Net.NewMessage(n.ID)
		m.Dst, m.Kind, m.Size = 0, KindBarrierArrive, barrierMsgSize
		if op != opBarrier {
			m.Kind, m.Size = KindReduceContrib, reduceMsgSize
			m.Addr, m.Arg, m.Arg2 = int(op), int64(bits), c.reduceGen
		}
		n.SendFromCompute(m)
		n.Sync(p)
	}
	// The barrier wait starts here, after the arrival: the send above is
	// compute time, which its Sync has just charged.
	start := p.Now()
	sig.Wait(p)
	n.St.BarrierTime += p.Now() - start
	if n.Trace != nil {
		name := "barrier"
		if op != opBarrier {
			name = "reduce:" + op.String()
		}
		n.Trace.Span(n.ID, trace.LaneCompute, name, "sync", start, p.Now())
	}
}

// Barrier enters a cluster-wide barrier from node n's compute process:
// the collective with no contribution.
func (c *Cluster) Barrier(p *sim.Proc, n *Node) { c.collective(p, n, opBarrier, 0) }

// AllReduce combines each node's partial value with op and returns the
// global result to every node; like the paper's SUM reductions it is
// implemented with low-level messages and doubles as a barrier. All
// compute processes must call it in the same order.
func (c *Cluster) AllReduce(p *sim.Proc, n *Node, op ReduceOp, v float64) float64 {
	c.collective(p, n, op, v)
	return n.reduceResult
}
