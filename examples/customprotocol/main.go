// Customprotocol: drive the Tempest-style substrate directly — the
// fine-grain access control and messaging primitives of the paper's
// Section 3 — and reproduce Figure 1's message-count comparison: a
// producer-consumer block transfer through the default invalidation
// protocol versus through the compiler-directed contract
// (mk_writable / implicit_writable / send / ready_to_recv /
// implicit_invalidate).
//
//	go run ./examples/customprotocol
package main

import (
	"flag"
	"fmt"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

var iters = 20

func main() {
	flag.IntVar(&iters, "iters", iters, "repetitions of the transfer")
	flag.Parse()

	defMsgs, defTime := defaultProtocol()
	ccMsgs, ccTime := compilerDirected()

	fmt.Println("producer -> consumer transfer of one 128-byte block, repeated", iters, "times")
	fmt.Println("(home of the block on a third node, as in the paper's Figure 1)")
	fmt.Println()
	fmt.Printf("default protocol    : %4.1f msgs/iter, %6.1f us/iter\n", defMsgs, defTime)
	fmt.Printf("compiler-directed   : %4.1f msgs/iter, %6.1f us/iter\n", ccMsgs, ccTime)
	fmt.Printf("reduction           : %.1fx fewer messages, %.1fx faster\n",
		defMsgs/ccMsgs, defTime/ccTime)
}

// build creates a 3-node cluster with one shared page homed on node 2.
func build() (*tempest.Cluster, *protocol.Proto, int) {
	mc := config.Default().WithNodes(3)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", 4*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	pr := protocol.Attach(c)
	return c, pr, base + 2*mc.PageSize // page homed at node 2
}

func defaultProtocol() (msgsPerIter, usPerIter float64) {
	c, _, addr := build()
	var start, end sim.Time
	var m0 int64

	c.Env.Spawn("producer", func(p *sim.Proc) {
		n := c.Nodes[0]
		n.StoreF64(p, addr, -1) // warm up: take initial ownership
		c.Barrier(p, n)
		start, m0 = p.Now(), c.Stats.TotalMessages()
		for i := 0; i < iters; i++ {
			n.StoreF64(p, addr, float64(i))
			c.Barrier(p, n)
			c.Barrier(p, n)
		}
		end = p.Now()
	})
	c.Env.Spawn("consumer", func(p *sim.Proc) {
		n := c.Nodes[1]
		c.Barrier(p, n)
		for i := 0; i < iters; i++ {
			c.Barrier(p, n)
			if got := n.LoadF64(p, addr); got != float64(i) {
				panic("stale value through the default protocol")
			}
			c.Barrier(p, n)
		}
	})
	c.Env.Spawn("home", func(p *sim.Proc) {
		n := c.Nodes[2]
		for i := 0; i < 2*iters+1; i++ {
			c.Barrier(p, n)
		}
	})
	if err := c.Run(); err != nil {
		panic(err)
	}
	barrier := int64(2*iters) * 4 // 2 arrives + 2 releases per 3-node barrier
	return float64(c.Stats.TotalMessages()-m0-barrier) / float64(iters),
		float64(end-start) / 1000 / float64(iters)
}

func compilerDirected() (msgsPerIter, usPerIter float64) {
	c, pr, addr := build()
	run := []protocol.BlockRun{{Start: addr / c.MC.BlockSize, N: 1}}
	var start, end sim.Time
	var m0 int64

	c.Env.Spawn("producer", func(p *sim.Proc) {
		n := c.Nodes[0]
		x := pr.Node(0)
		x.MkWritable(p, run) // step 1: owner takes the block writable
		c.Barrier(p, n)      // order step 1 before step 2
		c.Barrier(p, n)      // both sides ready
		start, m0 = p.Now(), c.Stats.TotalMessages()
		for i := 0; i < iters; i++ {
			n.StoreF64(p, addr, float64(i))
			x.SendBlocks(p, 1, run, protocol.SendBulk)
			c.Barrier(p, n)
		}
		end = p.Now()
	})
	c.Env.Spawn("consumer", func(p *sim.Proc) {
		n := c.Nodes[1]
		x := pr.Node(1)
		c.Barrier(p, n)
		x.ImplicitWritable(p, run, true) // step 2: open the frame
		c.Barrier(p, n)
		for i := 0; i < iters; i++ {
			x.ExpectBlocks(1)
			x.ReadyToRecv(p)
			if got := n.Mem.ReadF64(addr); got != float64(i) {
				panic("stale value through the compiler-directed transfer")
			}
			c.Barrier(p, n)
		}
		x.ImplicitInvalidate(p, run) // restore directory consistency
	})
	c.Env.Spawn("home", func(p *sim.Proc) {
		n := c.Nodes[2]
		for i := 0; i < iters+2; i++ {
			c.Barrier(p, n)
		}
	})
	if err := c.Run(); err != nil {
		panic(err)
	}
	barrier := int64(iters) * 4
	return float64(c.Stats.TotalMessages()-m0-barrier) / float64(iters),
		float64(end-start) / 1000 / float64(iters)
}
