package tempest

import (
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/sim"
)

func testCluster(t *testing.T, nodes int, mode config.CPUMode) *Cluster {
	t.Helper()
	mc := config.Default().WithNodes(nodes).WithCPUMode(mode)
	sp := memory.NewSpace(mc)
	sp.Alloc("arr", 64*1024)
	return NewCluster(sim.NewEnv(), sp)
}

func TestClusterConstruction(t *testing.T) {
	c := testCluster(t, 4, config.DualCPU)
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i || n.Mem.ID() != i {
			t.Fatalf("node %d mis-wired", i)
		}
	}
}

func TestComputeAccumulation(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n := c.Nodes[0]
	done := sim.Time(-1)
	c.Env.Spawn("compute", func(p *sim.Proc) {
		n.Compute(100)
		n.Compute(250)
		n.Sync(p)
		done = p.Now()
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 350 {
		t.Fatalf("synced at %d, want 350", done)
	}
	if n.St.ComputeTime != 350 {
		t.Fatalf("compute time = %d", n.St.ComputeTime)
	}
}

func TestHandlerDispatchAndCost(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	var handledAt sim.Time = -1
	c.Nodes[1].On(77, func(hc *HContext, m *network.Message) {
		handledAt = hc.Node.Env.Now()
		hc.AddCost(5 * sim.Microsecond)
	})
	c.Net.Send(&network.Message{Src: 0, Dst: 1, Kind: 77, Size: 4})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	want := c.MC.MsgTime(4)
	if handledAt != want {
		t.Fatalf("handled at %d, want %d", handledAt, want)
	}
	// Protocol engine stays busy for RecvOver + handler cost.
	busy := handledAt + c.MC.RecvOver + 5*sim.Microsecond
	if got := c.Nodes[1].ProtoBusyUntil(); got != busy {
		t.Fatalf("proto busy until %d, want %d", got, busy)
	}
}

func TestHandlerQueueing(t *testing.T) {
	// Two messages arriving close together serialize on the protocol
	// engine: the second handler runs only after the first's cost.
	c := testCluster(t, 2, config.DualCPU)
	var at []sim.Time
	c.Nodes[1].On(77, func(hc *HContext, m *network.Message) {
		at = append(at, hc.Node.Env.Now())
		hc.AddCost(100 * sim.Microsecond)
	})
	c.Net.Send(&network.Message{Src: 0, Dst: 1, Kind: 77, Size: 4})
	c.Net.Send(&network.Message{Src: 0, Dst: 1, Kind: 77, Size: 4})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 {
		t.Fatalf("handled %d messages", len(at))
	}
	if at[1] < at[0]+100*sim.Microsecond {
		t.Fatalf("second handler at %d overlaps first at %d", at[1], at[0])
	}
}

func TestSingleCPUStealsComputeTime(t *testing.T) {
	run := func(mode config.CPUMode) sim.Time {
		c := testCluster(t, 2, mode)
		c.Nodes[1].On(77, func(hc *HContext, m *network.Message) {
			hc.AddCost(50 * sim.Microsecond)
		})
		var done sim.Time
		c.Env.Spawn("compute", func(p *sim.Proc) {
			p.Sleep(c.MC.MsgTime(4) + 1) // let the handler land mid-computation
			c.Nodes[1].Compute(1000 * sim.Microsecond)
			c.Nodes[1].Sync(p)
			done = p.Now()
		})
		c.Net.Send(&network.Message{Src: 0, Dst: 1, Kind: 77, Size: 4})
		if err := c.Env.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	dual := run(config.DualCPU)
	single := run(config.SingleCPU)
	if single <= dual {
		t.Fatalf("single-cpu compute (%d) should be slower than dual-cpu (%d)", single, dual)
	}
	stolen := single - dual
	want := 50*sim.Microsecond + config.Default().RecvOver
	if stolen != want {
		t.Fatalf("stolen time = %d, want %d", stolen, want)
	}
}

func TestPendingTransactions(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n := c.Nodes[0]
	n.AddPending()
	n.AddPending()
	var done sim.Time = -1
	c.Env.Spawn("compute", func(p *sim.Proc) {
		n.WaitPending(p)
		done = p.Now()
	})
	c.Env.Schedule(100, func() { n.DonePending() })
	c.Env.Schedule(300, func() { n.DonePending() })
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 300 {
		t.Fatalf("WaitPending released at %d, want 300", done)
	}
	if n.St.CommTime != 300 {
		t.Fatalf("comm time = %d, want 300", n.St.CommTime)
	}
}

func TestDonePendingUnderflowPanics(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Nodes[0].DonePending()
}

func TestBarrierAllNodes(t *testing.T) {
	c := testCluster(t, 4, config.DualCPU)
	var release []sim.Time
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("compute", func(p *sim.Proc) {
			n.Compute(sim.Time(n.ID) * 100 * sim.Microsecond) // skewed arrivals
			c.Barrier(p, n)
			release = append(release, p.Now())
		})
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(release) != 4 {
		t.Fatalf("released %d nodes", len(release))
	}
	// No node may leave before the slowest (300 µs of compute) arrived.
	for _, r := range release {
		if r < 300*sim.Microsecond {
			t.Fatalf("node released at %d, before last arrival", r)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	c := testCluster(t, 3, config.DualCPU)
	counts := make([]int, 3)
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("compute", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				c.Barrier(p, n)
				counts[n.ID]++
			}
		})
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, k := range counts {
		if k != 5 {
			t.Fatalf("node %d completed %d barriers", i, k)
		}
	}
}

func TestBarrierWaitsForPending(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n0 := c.Nodes[0]
	n0.AddPending()
	var done sim.Time = -1
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("compute", func(p *sim.Proc) {
			c.Barrier(p, n)
			if n.ID == 0 {
				done = p.Now()
			}
		})
	}
	c.Env.Schedule(500*sim.Microsecond, func() { n0.DonePending() })
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 500*sim.Microsecond {
		t.Fatalf("barrier completed at %d despite pending transaction", done)
	}
}

func TestAllReduceSum(t *testing.T) {
	c := testCluster(t, 4, config.DualCPU)
	results := make([]float64, 4)
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("compute", func(p *sim.Proc) {
			results[n.ID] = c.AllReduce(p, n, OpSum, float64(n.ID+1))
		})
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != 10 { // 1+2+3+4
			t.Fatalf("node %d reduce result %v, want 10", i, r)
		}
	}
}

func TestAllReduceMaxMinRepeated(t *testing.T) {
	c := testCluster(t, 3, config.DualCPU)
	type res struct{ max, min float64 }
	results := make([]res, 3)
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("compute", func(p *sim.Proc) {
			mx := c.AllReduce(p, n, OpMax, float64(n.ID*10))
			mn := c.AllReduce(p, n, OpMin, float64(n.ID*10))
			results[n.ID] = res{mx, mn}
		})
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.max != 20 || r.min != 0 {
			t.Fatalf("node %d got max=%v min=%v", i, r.max, r.min)
		}
	}
}

func TestReduceOpStrings(t *testing.T) {
	if OpSum.String() != "SUM" || OpMax.String() != "MAX" || OpMin.String() != "MIN" {
		t.Fatal("ReduceOp strings wrong")
	}
	if OpSum.Combine(2, 3) != 5 || OpMax.Combine(2, 3) != 3 || OpMin.Combine(2, 3) != 2 {
		t.Fatal("Combine wrong")
	}
}

func TestSingleNodeBarrierAndReduce(t *testing.T) {
	c := testCluster(t, 1, config.DualCPU)
	n := c.Nodes[0]
	var sum float64
	c.Env.Spawn("compute", func(p *sim.Proc) {
		c.Barrier(p, n)
		sum = c.AllReduce(p, n, OpSum, 42)
		c.Barrier(p, n)
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("single-node reduce = %v", sum)
	}
}

func TestLoadStoreHomeNoFault(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n0 := c.Nodes[0] // page 0 homed at node 0
	c.Env.Spawn("compute", func(p *sim.Proc) {
		n0.StoreF64(p, 0, 3.5)
		if got := n0.LoadF64(p, 0); got != 3.5 {
			t.Errorf("home load = %v", got)
		}
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if m := n0.St.Misses(); m != 0 {
		t.Fatalf("home access took %d misses", m)
	}
}

func TestFaultInvokesProtocolHook(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n1 := c.Nodes[1]
	var faultAddr int = -1
	n1.Fault = func(p *sim.Proc, addr int, write bool) {
		faultAddr = addr
		// Resolve by granting access directly (a trivial "protocol").
		n1.Mem.SetTag(n1.Mem.Space().Block(addr), memory.ReadWrite)
		p.Sleep(93 * sim.Microsecond)
	}
	var t0, t1 sim.Time
	c.Env.Spawn("compute", func(p *sim.Proc) {
		t0 = p.Now()
		n1.StoreF64(p, 0, 1) // page 0 homed at node 0 => fault on node 1
		t1 = p.Now()
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if faultAddr != 0 {
		t.Fatalf("fault addr = %d", faultAddr)
	}
	if n1.St.WriteMisses != 1 {
		t.Fatalf("write misses = %d", n1.St.WriteMisses)
	}
	if t1-t0 != 93*sim.Microsecond {
		t.Fatalf("stall = %d", t1-t0)
	}
	if n1.St.CommTime != 93*sim.Microsecond {
		t.Fatalf("comm time = %d", n1.St.CommTime)
	}
}

func TestUnresolvedFaultPanics(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	n1 := c.Nodes[1]
	n1.Fault = func(p *sim.Proc, addr int, write bool) {} // does nothing
	panicked := false
	c.Env.Spawn("compute", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		n1.LoadF64(p, 0)
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unresolved fault did not panic")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	c := testCluster(t, 2, config.DualCPU)
	c.Nodes[0].On(99, func(*HContext, *network.Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Nodes[0].On(99, func(*HContext, *network.Message) {})
}

func TestHandlerSendRoundTrip(t *testing.T) {
	// A custom user-level protocol: node 1's handler replies from the
	// protocol engine; node 0's compute syncs and blocks on the reply.
	c := testCluster(t, 2, config.DualCPU)
	sig := sim.NewSignal()
	c.Nodes[0].On(91, func(hc *HContext, m *network.Message) {
		hc.AddCost(sim.Microsecond)
		sig.Fire()
	})
	c.Nodes[1].On(90, func(hc *HContext, m *network.Message) {
		// A slow service: the reply departs after 20 µs of protocol
		// work (SendFromProto defers departure past the occupancy).
		hc.Node.OccupyProto(20 * sim.Microsecond)
		hc.Node.SendFromProto(&network.Message{Dst: 0, Kind: 91, Size: 4})
	})
	var done sim.Time
	c.Env.Spawn("compute", func(p *sim.Proc) {
		n := c.Nodes[0]
		n.SendFromCompute(&network.Message{Dst: 1, Kind: 90, Size: 4})
		n.Sync(p)
		sig.Wait(p)
		done = p.Now()
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	// The reply needs two wire hops; the compute thread also pays its
	// own send overhead before blocking.
	if done < 2*c.MC.MsgTime(4) || done > 60*sim.Microsecond {
		t.Fatalf("custom round trip = %d, implausible", done)
	}
}

func TestSendFromProtoOrdering(t *testing.T) {
	// Two protocol-engine sends depart in order even when the engine
	// is backed up.
	c := testCluster(t, 2, config.DualCPU)
	var got []int64
	c.Nodes[1].On(92, func(hc *HContext, m *network.Message) {
		got = append(got, m.Arg)
	})
	n := c.Nodes[0]
	n.OccupyProto(100 * sim.Microsecond) // back up the engine
	n.SendFromProto(&network.Message{Dst: 1, Kind: 92, Arg: 1, Size: 4})
	n.SendFromProto(&network.Message{Dst: 1, Kind: 92, Arg: 2, Size: 4})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order = %v", got)
	}
}

func TestEngineQueueStaysOutOfHeap(t *testing.T) {
	// A flood of messages the endpoint accepts at one instant queues
	// behind the protocol engine, not in the event heap: only the next
	// handler run — and the reply departures it leaves behind, likewise
	// one per source — is a heap node, and the handlers still run in
	// arrival order, back to back.
	const flood = 4096
	c := testCluster(t, 2, config.DualCPU)
	n := c.Nodes[1]
	var order []int64
	peak := 0
	n.On(93, func(hc *HContext, m *network.Message) {
		order = append(order, m.Arg)
		hc.AddCost(sim.Microsecond)
		hc.Node.SendFromProto(&network.Message{Dst: 0, Kind: 94, Arg: m.Arg, Size: 4})
		if l := c.Env.HeapLen(); l > peak {
			peak = l
		}
	})
	var replies []int64
	c.Nodes[0].On(94, func(hc *HContext, m *network.Message) { replies = append(replies, m.Arg) })
	c.Env.Schedule(0, func() {
		for i := 0; i < flood; i++ {
			n.receive(&network.Message{Src: 0, Dst: 1, Kind: 93, Arg: int64(i), Size: 4})
		}
		if got := n.HandlersQueued(); got != flood {
			t.Errorf("HandlersQueued = %d after the flood, want %d", got, flood)
		}
		if l := c.Env.HeapLen(); l >= 64 {
			t.Errorf("event heap holds %d nodes with %d handler runs queued, want < 64", l, flood)
		}
	})
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if peak >= 64 {
		t.Errorf("event heap reached %d nodes while the engine drained, want < 64", peak)
	}
	if n.HandlersQueued() != 0 || len(order) != flood || len(replies) != flood {
		t.Fatalf("ran %d handlers, got %d replies, %d still queued; want %d, %d, 0",
			len(order), len(replies), n.HandlersQueued(), flood, flood)
	}
	for i := range order {
		if order[i] != int64(i) || replies[i] != int64(i) {
			t.Fatalf("handler %d ran message %d and reply %d carried %d: not in arrival order", i, order[i], i, replies[i])
		}
	}
	if want := sim.Time(flood) * (c.MC.RecvOver + sim.Microsecond + c.MC.SendOver); n.ProtoBusyUntil() != want {
		t.Errorf("engine busy until %d, want %d: the occupancy of %d receives, handlers and sends", n.ProtoBusyUntil(), want, flood)
	}
}
