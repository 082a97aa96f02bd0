package protocol

import (
	"fmt"
	"testing"
	"unsafe"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// harness builds a cluster with the protocol attached and one shared
// allocation of the given page count.
type harness struct {
	c     *tempest.Cluster
	p     *Proto
	base  int
	space *memory.Space
}

func newHarness(t *testing.T, nodes, pages int, mode config.CPUMode) *harness {
	t.Helper()
	return newHarnessOn(config.Default().WithNodes(nodes).WithCPUMode(mode), pages)
}

// newHarnessOn builds a harness on machine mc with a pages-page array.
func newHarnessOn(mc config.Machine, pages int) *harness {
	sp := memory.NewSpace(mc)
	base := sp.Alloc("arr", pages*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	return &harness{c: c, p: Attach(c), base: base, space: sp}
}

// run spawns body as node id's compute process.
func (h *harness) run(id int, name string, body func(p *sim.Proc, n *tempest.Node)) {
	n := h.c.Nodes[id]
	h.c.Env.Spawn(name, func(p *sim.Proc) { body(p, n) })
}

// audits is what the barrier-instant coherence audit saw over a run.
type audits struct {
	ran int   // audits run, one per all-arrived instant
	err error // the first failure, which does not stop the run
}

// auditAtBarrier joins the coherence audit to the cluster's barrier
// instant, after any hook already registered.
func (h *harness) auditAtBarrier() *audits {
	a := &audits{}
	h.c.AtBarrier = append(h.c.AtBarrier, func(epoch int64) {
		a.ran++
		if err := h.p.CheckAtBarrier(); err != nil && a.err == nil {
			a.err = fmt.Errorf("coherence check at epoch %d: %w", epoch, err)
		}
	})
	return a
}

// addrOnPage returns an 8-byte-aligned address on the page homed at
// node `home` (page index == home for the first pages).
func (h *harness) addrOnPage(home, off int) int {
	return h.base + home*h.space.Machine().PageSize + off
}

func TestRemoteReadGetsHomeData(t *testing.T) {
	h := newHarness(t, 4, 8, config.DualCPU)
	addr := h.addrOnPage(0, 0) // homed at node 0
	var got float64
	h.run(0, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 7.25) // home write: no fault
		h.c.Barrier(p, n)
	})
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		h.c.Barrier(p, n)
		got = n.LoadF64(p, addr)
	})
	for i := 2; i < 4; i++ {
		h.run(i, "idle", func(p *sim.Proc, n *tempest.Node) { h.c.Barrier(p, n) })
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7.25 {
		t.Fatalf("remote read = %v, want 7.25", got)
	}
	if h.c.Stats.Nodes[1].ReadMisses != 1 {
		t.Fatalf("reader misses = %d, want 1", h.c.Stats.Nodes[1].ReadMisses)
	}
}

func TestReadMissLatencyMatchesTable1(t *testing.T) {
	// A remote read miss with the data in home memory must take ~93 µs
	// in the dual-CPU configuration (Table 1).
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	var stall sim.Time
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		n.LoadF64(p, addr) // warm the page mapping (first touch pays PageMapCost)
		t0 := p.Now()
		n.LoadF64(p, addr+h.space.BlockSize())
		stall = p.Now() - t0
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	lo, hi := 88*sim.Microsecond, 98*sim.Microsecond
	if stall < lo || stall > hi {
		t.Fatalf("read miss latency = %.1f µs, want 88-98 µs", float64(stall)/1000)
	}
}

func TestProducerConsumerEightMessages(t *testing.T) {
	// Figure 1(a): in steady state, one producer->consumer transfer
	// under the default protocol costs 8 messages: read-request,
	// put-data-request, put-data-response, read-response on the
	// consumer side, then write-request(upgrade), invalidation,
	// acknowledgement, write-grant when the producer rewrites.
	h := newHarness(t, 3, 4, config.DualCPU)
	addr := h.addrOnPage(2, 0) // homed at node 2: home is neither p nor q

	iters := 6
	h.run(0, "producer", func(p *sim.Proc, n *tempest.Node) {
		for i := 0; i < iters; i++ {
			n.StoreF64(p, addr, float64(i))
			h.c.Barrier(p, n)
			h.c.Barrier(p, n)
		}
	})
	var got []float64
	h.run(1, "consumer", func(p *sim.Proc, n *tempest.Node) {
		for i := 0; i < iters; i++ {
			h.c.Barrier(p, n)
			got = append(got, n.LoadF64(p, addr))
			h.c.Barrier(p, n)
		}
	})
	h.run(2, "home", func(p *sim.Proc, n *tempest.Node) {
		for i := 0; i < 2*iters; i++ {
			h.c.Barrier(p, n)
		}
	})
	before := int64(-1)
	var perIter int64
	_ = before
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("consumer read %v at iter %d", v, i)
		}
	}
	// Count protocol messages (subtract barrier traffic: per barrier,
	// 2 arrive + 2 release messages in a 3-node cluster).
	barrierMsgs := int64(2*iters) * 4
	protoMsgs := h.c.Stats.TotalMessages() - barrierMsgs
	// First iteration includes cold misses; steady state is 8/iter.
	perIter = protoMsgs / int64(iters)
	if perIter < 7 || perIter > 9 {
		t.Fatalf("steady-state protocol messages per transfer = %d (total %d), want ~8", perIter, protoMsgs)
	}
}

func TestUpgradeIsNonBlocking(t *testing.T) {
	// After read-sharing, a store to a readonly block should not stall
	// the writer for a round trip; the grant is collected at the next
	// synchronization.
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	var storeStall, syncStall sim.Time
	h.run(1, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.LoadF64(p, addr) // cold read miss -> readonly copy
		t0 := p.Now()
		n.StoreF64(p, addr, 1) // upgrade
		storeStall = p.Now() - t0
		if n.Pending() != 1 {
			t.Errorf("pending = %d during upgrade, want 1", n.Pending())
		}
		t1 := p.Now()
		n.WaitPending(p)
		syncStall = p.Now() - t1
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	if storeStall > mc.FaultCost+mc.SendOver {
		t.Fatalf("upgrade stalled the writer for %d ns", storeStall)
	}
	if syncStall == 0 {
		t.Fatal("upgrade grant should arrive after the store; sync stall was zero")
	}
}

func TestFalseSharingMultipleWriterMerge(t *testing.T) {
	// Nodes 1 and 2 write different words of the same block; node 0
	// (home) then reads both values. The dirty-word merge must not
	// lose either update.
	h := newHarness(t, 3, 4, config.DualCPU)
	a1 := h.addrOnPage(0, 0)
	a2 := h.addrOnPage(0, 8)
	var v1, v2 float64
	h.run(1, "w1", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, a1, 111)
		h.c.Barrier(p, n)
		h.c.Barrier(p, n)
	})
	h.run(2, "w2", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, a2, 222)
		h.c.Barrier(p, n)
		h.c.Barrier(p, n)
	})
	h.run(0, "reader", func(p *sim.Proc, n *tempest.Node) {
		h.c.Barrier(p, n)
		v1 = n.LoadF64(p, a1)
		v2 = n.LoadF64(p, a2)
		h.c.Barrier(p, n)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if v1 != 111 || v2 != 222 {
		t.Fatalf("merged reads = %v, %v; want 111, 222", v1, v2)
	}
}

func TestWriteMissFetchesData(t *testing.T) {
	// A write to an invalid block must fetch current contents (other
	// words of the block must stay correct).
	h := newHarness(t, 2, 2, config.DualCPU)
	a0 := h.addrOnPage(0, 0)
	a1 := h.addrOnPage(0, 8)
	var other float64
	h.run(0, "init", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, a1, 5.5)
		h.c.Barrier(p, n)
		h.c.Barrier(p, n)
	})
	h.run(1, "writer", func(p *sim.Proc, n *tempest.Node) {
		h.c.Barrier(p, n)
		n.StoreF64(p, a0, 1.0) // non-blocking write miss
		if n.Pending() != 1 {
			t.Errorf("write miss should leave a pending transaction")
		}
		n.WaitPending(p) // fetched copy merges into clean words by now
		other = n.Mem.ReadF64(a1)
		if got := n.Mem.ReadF64(a0); got != 1.0 {
			t.Errorf("local write lost in merge: a0 = %v", got)
		}
		h.c.Barrier(p, n)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if other != 5.5 {
		t.Fatalf("write miss did not fetch block contents: a1 = %v", other)
	}
}

func TestHomeReadAfterRemoteWrite(t *testing.T) {
	// Remote node takes exclusive ownership; home's subsequent read
	// must pull the data back.
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	var got float64
	h.run(1, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 9.75)
		h.c.Barrier(p, n)
		h.c.Barrier(p, n)
	})
	h.run(0, "home", func(p *sim.Proc, n *tempest.Node) {
		h.c.Barrier(p, n)
		got = n.LoadF64(p, addr)
		h.c.Barrier(p, n)
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9.75 {
		t.Fatalf("home read-back = %v, want 9.75", got)
	}
	if h.c.Stats.Nodes[0].ReadMisses != 1 {
		t.Fatalf("home read misses = %d, want 1", h.c.Stats.Nodes[0].ReadMisses)
	}
}

func TestWriterPingPong(t *testing.T) {
	// Two nodes alternately write the same word across barriers; each
	// must observe the other's last value.
	h := newHarness(t, 2, 2, config.DualCPU)
	addr := h.addrOnPage(0, 0)
	rounds := 4
	fail := make(chan string, 8)
	body := func(me int) func(p *sim.Proc, n *tempest.Node) {
		return func(p *sim.Proc, n *tempest.Node) {
			for r := 0; r < rounds; r++ {
				turn := r%2 == me
				if turn {
					n.StoreF64(p, addr, float64(r))
				}
				h.c.Barrier(p, n)
				if got := n.LoadF64(p, addr); got != float64(r) {
					fail <- "stale value"
				}
				h.c.Barrier(p, n)
			}
		}
	}
	h.run(0, "a", body(0))
	h.run(1, "b", body(1))
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

func TestPageMapCostChargedOnce(t *testing.T) {
	h := newHarness(t, 2, 2, config.DualCPU)
	a0 := h.addrOnPage(0, 0)
	a1 := h.addrOnPage(0, 128) // same page, different block
	var first, second sim.Time
	h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
		t0 := p.Now()
		n.LoadF64(p, a0)
		first = p.Now() - t0
		t1 := p.Now()
		n.LoadF64(p, a1)
		second = p.Now() - t1
	})
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	if first-second != mc.PageMapCost {
		t.Fatalf("first miss %d, second %d; difference should be the page-map cost %d",
			first, second, mc.PageMapCost)
	}
}

func TestSingleCPUMissesSlower(t *testing.T) {
	measure := func(mode config.CPUMode) sim.Time {
		h := newHarness(t, 2, 2, mode)
		addr := h.addrOnPage(0, 0)
		var total sim.Time
		h.run(1, "reader", func(p *sim.Proc, n *tempest.Node) {
			t0 := p.Now()
			for i := 0; i < 8; i++ {
				n.LoadF64(p, addr+i*h.space.BlockSize())
				n.Compute(50 * sim.Microsecond)
				n.Sync(p)
			}
			total = p.Now() - t0
		})
		h.run(0, "home", func(p *sim.Proc, n *tempest.Node) {
			// Home also computes and takes remote requests.
			for i := 0; i < 8; i++ {
				n.Compute(50 * sim.Microsecond)
				n.Sync(p)
			}
		})
		if err := h.c.Env.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	dual := measure(config.DualCPU)
	single := measure(config.SingleCPU)
	if single <= dual {
		t.Fatalf("single-cpu run (%d) not slower than dual-cpu (%d)", single, dual)
	}
}

// TestDirectoryValueSizes pins the directory's per-slot footprint on
// 64-bit hosts: every homed block pays a dirEntry in its home's table
// whether or not it is ever asked for, and a request is copied on every
// enqueue.
func TestDirectoryValueSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(dirReq{}); got != 32 {
		t.Errorf("dirReq is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(dirEntry{}); got > 88 {
		t.Errorf("dirEntry is %d bytes, want at most 88", got)
	}
}
