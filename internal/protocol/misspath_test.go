package protocol

import (
	"fmt"
	"strings"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// missCase is one kind of default-protocol transaction that a compute
// process repeats once per missPeriod on a small release-consistent
// cluster. Before each access the block is put back in the state the
// transaction starts from — the copies in drop invalidated, those in
// share downgraded to readonly sharers — as earlier traffic would have
// left it; everything else about the miss is the real fault path.
type missCase struct {
	name   string
	nodes  int
	tree   bool // radix-4 combining tree: the home relays sharer invalidations
	node   int  // the node that misses, on a block homed at node 0
	store  bool
	drop   []int
	share  []int
	allocs float64 // heap allocations per transaction
}

var missCases = []missCase{
	{name: "remote-read", nodes: 2, node: 1, drop: []int{1}, share: []int{0}, allocs: 0},
	{name: "home-read", nodes: 2, node: 0, drop: []int{0}, allocs: 0},
	{name: "home-upgrade", nodes: 2, node: 0, store: true, share: []int{0}, allocs: 0},
	{name: "remote-upgrade", nodes: 2, node: 1, store: true, drop: []int{0}, share: []int{1}, allocs: 0},
	// Sharers 4 and 5 form one relayed cluster: node 4 runs the round.
	{name: "tree-round", nodes: 16, tree: true, node: 1, store: true, drop: []int{0}, share: []int{1, 4, 5}, allocs: 0},
}

const missPeriod = sim.Millisecond

// missLoop starts mc's compute process and returns its harness and
// step, which runs the simulation through one more transaction. The
// caller reaps the process with h.c.Env.Shutdown.
func missLoop(tb testing.TB, mc missCase) (h *harness, step func()) {
	tb.Helper()
	cfg := config.Default().WithNodes(mc.nodes).WithCPUMode(config.DualCPU)
	if mc.tree {
		cfg = cfg.WithTopology(config.TreeTopo).WithRadix(4)
	}
	sp := memory.NewSpace(cfg)
	base := sp.Alloc("arr", cfg.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	h = &harness{c: c, p: Attach(c), base: base, space: sp}
	addr := h.addrOnPage(0, 0)
	b := sp.Block(addr)
	home := h.p.nodes[0]
	h.run(mc.node, mc.name, func(p *sim.Proc, n *tempest.Node) {
		for {
			e := home.entry(b)
			for _, id := range mc.drop {
				h.c.Nodes[id].Mem.SetTag(b, memory.Invalid)
				h.c.Nodes[id].Mem.ClearDirty(b)
				e.forget(id)
			}
			for _, id := range mc.share {
				h.c.Nodes[id].Mem.SetTag(b, memory.ReadOnly)
				h.c.Nodes[id].Mem.ClearDirty(b)
				e.writers().clear(id)
				e.sharers().set(id)
			}
			if mc.store {
				n.StoreF64(p, addr, 1)
			} else {
				n.LoadF64(p, addr)
			}
			n.WaitPending(p)
			p.Sleep(missPeriod - p.Now()%missPeriod)
		}
	})
	env := h.c.Env
	step = func() {
		if err := env.RunUntil(env.Now() + missPeriod); err != nil {
			tb.Fatal(err)
		}
	}
	// Warm up: message and buffer pools, the event slab and the slices
	// the transaction appends to reach their high-water marks.
	for i := 0; i < 4; i++ {
		step()
	}
	return h, step
}

// TestMissPathAllocs pins the host allocations of one transaction of
// each kind, everything it runs on every node included.
func TestMissPathAllocs(t *testing.T) {
	for _, mc := range missCases {
		t.Run(mc.name, func(t *testing.T) {
			h, step := missLoop(t, mc)
			defer h.c.Env.Shutdown()
			st := &h.c.Stats.Nodes[mc.node]
			misses := func() int64 { return st.ReadMisses + st.UpgradeMisses + st.WriteMisses }
			m0, r0 := misses(), h.p.InvalRounds()
			const runs = 50
			if got := testing.AllocsPerRun(runs, step); got != mc.allocs {
				t.Errorf("%s allocates %v times per transaction, want %v", mc.name, got, mc.allocs)
			}
			// AllocsPerRun steps once more to warm up.
			if got := misses() - m0; got != runs+1 {
				t.Errorf("node %d faulted %d times in %d steps", mc.node, got, runs+1)
			}
			if got := h.p.InvalRounds() - r0; mc.tree && got != runs+1 {
				t.Errorf("the home opened %d relay rounds in %d steps", got, runs+1)
			}
		})
	}
}

// BenchmarkMissPath is the host cost of one default-protocol
// transaction of each kind (simulated time is pinned elsewhere).
func BenchmarkMissPath(b *testing.B) {
	for _, mc := range missCases {
		b.Run(mc.name, func(b *testing.B) {
			h, step := missLoop(b, mc)
			defer h.c.Env.Shutdown()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}

// TestCarrierScatterAllocs: node 0 sends node 1 two tagged-data runs
// per period through the coalescer, which drains them as one carrier;
// node 1 scatters it to the tagged-data handler. Once the pools are
// warm a period allocates nothing on either node.
func TestCarrierScatterAllocs(t *testing.T) {
	h := newHarnessOn(config.Default().WithNodes(2).WithCPUMode(config.DualCPU), 2)
	defer h.c.Env.Shutdown()
	h.p.EnableAggregation(config.DefaultAggDelay)
	b0 := h.space.Block(h.addrOnPage(0, 0))
	runs := []BlockRun{{Start: b0, N: 1}, {Start: b0 + 2, N: 1}}
	h.run(0, "sender", func(p *sim.Proc, n *tempest.Node) {
		x := h.p.Node(0)
		for {
			x.SendBlocks(p, 1, runs, SendAggregate)
			x.DrainAggregated(p)
			p.Sleep(missPeriod - p.Now()%missPeriod)
		}
	})
	h.run(1, "receiver", func(p *sim.Proc, n *tempest.Node) {
		x := h.p.Node(1)
		x.ImplicitWritable(p, runs, true)
		for {
			x.ExpectBlocks(2)
			x.ReadyToRecv(p)
			p.Sleep(missPeriod - p.Now()%missPeriod)
		}
	})
	env := h.c.Env
	step := func() {
		if err := env.RunUntil(env.Now() + missPeriod); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	st := &h.c.Stats.Nodes[0]
	c0 := st.CarriersSent
	const runsN = 50
	if got := testing.AllocsPerRun(runsN, step); got != 0 {
		t.Errorf("a carrier scatter allocates %v times per period", got)
	}
	if got := st.CarriersSent - c0; got != runsN+1 {
		t.Errorf("node 0 sent %d carriers in %d periods", got, runsN+1)
	}
}

// TestDumpNamesHomeLocalMiss: the home's own blocking miss appears in
// the watchdog dump like anyone else's. Node 1 dirties a block homed at
// node 0 and dies; node 0's read of the block then waits for a flush
// that never comes.
func TestDumpNamesHomeLocalMiss(t *testing.T) {
	h := newHarness(t, 2, 2, config.DualCPU)
	h.c.Env.SetWatchdog(time24h, h.watchdogDump)
	addr := h.addrOnPage(0, 0)
	b := h.space.Block(addr)
	h.run(1, "writer", func(p *sim.Proc, n *tempest.Node) {
		n.StoreF64(p, addr, 1)
		n.WaitPending(p)
		h.c.Net.MarkDead(1)
	})
	h.run(0, "home", func(p *sim.Proc, n *tempest.Node) {
		p.Sleep(sim.Millisecond)
		n.LoadF64(p, addr)
	})
	err := h.c.Env.Run()
	if err == nil {
		t.Fatal("the home's read completed without the dead writer's flush")
	}
	for _, want := range []string{
		fmt.Sprintf("node 0: blocking misses on blocks [%d]", b),
		fmt.Sprintf("node 0: directory block %d busy", b),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump lacks %q:\n%v", want, err)
		}
	}
}
