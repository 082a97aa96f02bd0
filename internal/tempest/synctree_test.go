package tempest

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/topo"
)

// treeTestCluster builds a protocol-less cluster on the tree topology.
func treeTestCluster(t testing.TB, nodes, radix int) *Cluster {
	t.Helper()
	mc := config.Default().WithNodes(nodes).WithTopology(config.TreeTopo).WithRadix(radix)
	sp := memory.NewSpace(mc)
	sp.Alloc("arr", 64*1024)
	return NewCluster(sim.NewEnv(), sp)
}

// treeSyncRun drives one barrier + one AllReduce with per-node compute
// delays, returning node 0's post-barrier release instant, its
// post-reduce release instant, and the reduction result's bits (the
// result is identical on every node by construction; the run asserts
// it).
func treeSyncRun(t testing.TB, nodes, radix int, delay []sim.Time) (barAt, redAt sim.Time, bits uint64) {
	t.Helper()
	c := treeTestCluster(t, nodes, radix)
	results := make([]float64, nodes)
	for _, n := range c.Nodes {
		n := n
		c.Env.Spawn("sync", func(p *sim.Proc) {
			p.Sleep(delay[n.ID])
			c.Barrier(p, n)
			if n.ID == 0 {
				barAt = p.Now()
			}
			// Re-align on an absolute instant before the reduce phase: the
			// release wave reaches children at slot-dependent times (the
			// parent fans down sequentially), so phase two must not
			// inherit that skew or the delay multiset per sibling group
			// would no longer be the only arrival-order input.
			p.Sleep(sim.Second - p.Now())
			p.Sleep(delay[n.ID])
			results[n.ID] = c.AllReduce(p, n, OpSum, math.Sqrt(float64(n.ID+1)))
			if n.ID == 0 {
				redAt = p.Now()
			}
		})
	}
	if err := c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	bits = math.Float64bits(results[0])
	for id, r := range results {
		if math.Float64bits(r) != bits {
			t.Fatalf("node %d reduce result %x differs from node 0's %x", id, math.Float64bits(r), bits)
		}
	}
	return barAt, redAt, bits
}

// permuteSiblings reassigns delays within each leaf sibling group
// (childless nodes sharing a parent in the radix-K heap), leaving the
// multiset of delays per group intact. Leaf siblings have isomorphic
// (empty) subtrees, so swapping their delays changes only which child
// arrives when — interior siblings are left alone, because the
// left-packed heap gives them different subtree shapes and a delay
// swap there legitimately moves the critical path. rot rotates each
// group; rot < 0 reverses it.
func permuteSiblings(nodes, radix int, delay []sim.Time, rot int) []sim.Time {
	tr := topo.MustNew(nodes, radix)
	groups := map[int][]int{}
	for id := 1; id < nodes; id++ {
		if len(tr.Children(id, nil)) != 0 {
			continue
		}
		p := tr.Parent(id)
		groups[p] = append(groups[p], id)
	}
	out := append([]sim.Time(nil), delay...)
	for _, g := range groups {
		if rot < 0 {
			for i := range g {
				out[g[i]] = delay[g[len(g)-1-i]]
			}
			continue
		}
		for i := range g {
			out[g[i]] = delay[g[(i+rot)%len(g)]]
		}
	}
	return out
}

func TestTreeSyncSiblingPermutationInvariance(t *testing.T) {
	// The combining tree's contract: which sibling arrives first must not
	// matter. Permuting compute delays within leaf sibling groups changes
	// the order their parents hear them in but preserves each group's
	// delay multiset — so the barrier release instant, the reduction
	// release instant, and the reduction result's bits must all be
	// invariant across the permutations.
	const nodes, radix = 27, 3
	delay := make([]sim.Time, nodes)
	for i := range delay {
		delay[i] = sim.Time((i*37)%11) * 10 * sim.Microsecond
	}
	refBar, refRed, refBits := treeSyncRun(t, nodes, radix, delay)
	for _, rot := range []int{1, 2, -1} {
		bar, red, bits := treeSyncRun(t, nodes, radix, permuteSiblings(nodes, radix, delay, rot))
		if bits != refBits {
			t.Fatalf("rot %d: reduction bits %x, reference %x (arrival order leaked into the fold)", rot, bits, refBits)
		}
		if bar != refBar || red != refRed {
			t.Fatalf("rot %d: release instants barrier=%d reduce=%d, reference barrier=%d reduce=%d",
				rot, bar, red, refBar, refRed)
		}
	}
}

func TestTreeReduceMatchesFlat(t *testing.T) {
	// Same contributions, both topologies: the tree must reproduce the
	// flat master's canonical ascending fold bit-for-bit.
	const nodes = 13
	run := func(topoKind config.Topology) uint64 {
		mc := config.Default().WithNodes(nodes).WithTopology(topoKind).WithRadix(3)
		sp := memory.NewSpace(mc)
		sp.Alloc("arr", 64*1024)
		c := NewCluster(sim.NewEnv(), sp)
		var bits uint64
		for _, n := range c.Nodes {
			n := n
			c.Env.Spawn("red", func(p *sim.Proc) {
				r := c.AllReduce(p, n, OpSum, math.Sqrt(float64(n.ID+1))/3)
				if n.ID == 0 {
					bits = math.Float64bits(r)
				}
			})
		}
		if err := c.Env.Run(); err != nil {
			t.Fatal(err)
		}
		return bits
	}
	if f, tr := run(config.Flat), run(config.TreeTopo); f != tr {
		t.Fatalf("tree reduction %x differs from flat %x", tr, f)
	}
}

// FuzzTreeReduce checks the combining tree against an independent
// oracle: whatever the cluster shape, radix, operator, and per-node
// delays, the reduction must equal the canonical ascending fold of the
// contributions computed directly — bit for bit.
func FuzzTreeReduce(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(0), uint64(1))
	f.Add(uint8(27), uint8(3), uint8(1), uint64(42))
	f.Add(uint8(64), uint8(4), uint8(2), uint64(7))
	f.Add(uint8(5), uint8(7), uint8(0), uint64(99))
	f.Fuzz(func(t *testing.T, nsel, rsel, osel uint8, seed uint64) {
		nodes := 2 + int(nsel)%63 // 2..64
		radix := 2 + int(rsel)%7  // 2..8
		op := ReduceOp(osel % 3)  // sum, max, min
		rng := seed
		next := func() uint64 { // splitmix64
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		contrib := make([]float64, nodes)
		delay := make([]sim.Time, nodes)
		for i := range contrib {
			// Finite, wide-range values: mantissa bits matter, NaNs don't.
			contrib[i] = (float64(int64(next()%2000))/7 - 140) * math.Sqrt(float64(i+1))
			delay[i] = sim.Time(next()%200) * sim.Microsecond
		}
		want := contrib[0]
		for i := 1; i < nodes; i++ {
			want = op.Combine(want, contrib[i])
		}

		c := treeTestCluster(t, nodes, radix)
		results := make([]float64, nodes)
		for _, n := range c.Nodes {
			n := n
			c.Env.Spawn("red", func(p *sim.Proc) {
				p.Sleep(delay[n.ID])
				results[n.ID] = c.AllReduce(p, n, op, contrib[n.ID])
			})
		}
		if err := c.Env.Run(); err != nil {
			t.Fatal(err)
		}
		for id, r := range results {
			if math.Float64bits(r) != math.Float64bits(want) {
				t.Fatalf("nodes=%d radix=%d op=%s: node %d got %x, canonical fold %x",
					nodes, radix, op, id, math.Float64bits(r), math.Float64bits(want))
			}
		}
	})
}

// collectivePin is what TestCollectiveInstantsPinned holds fixed for one
// machine: every node's release instant in each of the six rounds, the
// reduce journal, the traffic totals, the drained clock and the kernel's
// event census.
type collectivePin struct {
	release [6][]sim.Time
	journal [3]uint64
	msgs    int64
	bytes   int64
	now     sim.Time
	events  sim.EventStats
}

func TestCollectiveInstantsPinned(t *testing.T) {
	// Barriers and reductions are one protocol run without and with a
	// contribution; this pins, to the nanosecond and the event, what that
	// protocol does on both topologies, so a change that moves, adds or
	// drops a single event fails here before it reaches the golden
	// tables. The tree's last level is ragged (node 4 has two children).
	// The jitter rows run the reliable layer, where every collection in
	// progress arms a membership timeout: a timeout is an event, so
	// FnEvents and the drained clock pin where each one is armed (once at
	// the flat master, once per tree node). One nanosecond of jitter
	// moves no release instant.
	flat := collectivePin{
		release: [6][]sim.Time{
			{134000, 136000, 137000, 141000, 139000, 140000, 141000, 142000},
			{276400, 278800, 280200, 281600, 283000, 284400, 285800, 287200},
			{414400, 416400, 417400, 418400, 419400, 420400, 421400, 422400},
			{556400, 558800, 560200, 561600, 563000, 564400, 565800, 567200},
			{694400, 696800, 698200, 699600, 701000, 702400, 703800, 705200},
			{836400, 838400, 839400, 840400, 841400, 842400, 843400, 844400},
		},
		journal: [3]uint64{0x3fd395833af87644, 0x4003e1db337db367, 0xc010000000000000},
		msgs:    84, bytes: 2016, now: 844400,
		events: sim.EventStats{Dispatches: 193, ArgEvents: 168, FnEvents: 0},
	}
	tree := collectivePin{
		release: [6][]sim.Time{
			{145000, 147000, 148000, 154000, 150000, 149000, 150000, 151000, 152000, 150000, 151000, 152000, 153000, 156000, 157000, 158000, 159000, 152000, 153000},
			{301200, 305400, 305000, 306400, 307800, 307800, 309200, 310600, 312000, 307400, 308800, 310200, 311600, 308800, 310200, 311600, 313000, 310200, 311600},
			{452200, 454200, 464200, 456200, 457200, 456200, 457200, 458200, 459200, 466200, 467200, 468200, 469200, 458200, 459200, 460200, 461200, 459200, 460200},
			{611400, 613800, 615200, 616600, 618000, 616200, 617600, 619000, 620400, 617600, 619000, 620400, 621800, 619000, 620400, 621800, 623200, 620400, 621800},
			{759600, 774800, 763400, 764800, 766200, 777200, 778600, 780000, 781400, 765800, 767200, 768600, 770000, 767200, 768600, 770000, 771400, 768600, 770000},
			{918200, 920200, 924000, 922200, 923200, 922200, 923200, 924200, 925200, 926000, 927000, 928000, 929000, 924200, 925200, 926200, 927200, 925200, 926200},
		},
		journal: [3]uint64{0x4033319f9eb1ebb8, 0x401c4e899d2ce9eb, 0xc010000000000000},
		msgs:    216, bytes: 5688, now: 929000,
		events: sim.EventStats{Dispatches: 361, ArgEvents: 432, FnEvents: 0},
	}
	flatJitter, treeJitter := flat, tree
	flatJitter.msgs, flatJitter.bytes, flatJitter.now = 168, 4032, 20735400
	flatJitter.events = sim.EventStats{Dispatches: 193, ArgEvents: 84, FnEvents: 342}
	treeJitter.msgs, treeJitter.bytes, treeJitter.now = 432, 10872, 20902000
	treeJitter.events = sim.EventStats{Dispatches: 361, ArgEvents: 216, FnEvents: 978}

	flatMC := config.Default()
	treeMC := config.Default().WithNodes(19).WithTopology(config.TreeTopo).WithRadix(4)
	jitter := config.Faults{Jitter: 1}
	for _, row := range []struct {
		name string
		mc   config.Machine
		want collectivePin
	}{
		{"flat8", flatMC, flat},
		{"tree19r4", treeMC, tree},
		{"flat8-jitter", flatMC.WithFaults(jitter), flatJitter},
		{"tree19r4-jitter", treeMC.WithFaults(jitter), treeJitter},
	} {
		t.Run(row.name, func(t *testing.T) {
			sp := memory.NewSpace(row.mc)
			sp.Alloc("arr", 64*1024)
			c := NewCluster(sim.NewEnv(), sp)
			ops := []ReduceOp{opBarrier, OpSum, opBarrier, OpMax, OpMin, opBarrier}
			hooks := atBarrierOrder(t, c, ops)
			var got collectivePin
			for r := range got.release {
				got.release[r] = make([]sim.Time, row.mc.Nodes)
			}
			for _, n := range c.Nodes {
				n := n
				c.Env.Spawn("sync", func(p *sim.Proc) {
					v := math.Sqrt(float64(n.ID+1)) - 2
					for r, op := range ops {
						// Staggered arrivals: a different node is last in
						// each round, and the master is neither always
						// first nor always last.
						p.Sleep(sim.Time((n.ID*7+r*5)%11) * 13 * sim.Microsecond)
						if op == opBarrier {
							c.Barrier(p, n)
						} else {
							res := c.AllReduce(p, n, op, v*float64(r))
							if last := c.ReduceJournal[len(c.ReduceJournal)-1]; math.Float64bits(res) != math.Float64bits(last) {
								t.Errorf("round %d: node %d was handed %v, the journal holds %v", r, n.ID, res, last)
							}
						}
						got.release[r][n.ID] = p.Now()
					}
				})
			}
			if err := c.Env.Run(); err != nil {
				t.Fatal(err)
			}
			if len(c.ReduceJournal) != len(got.journal) {
				t.Fatalf("journal holds %d results, want %d", len(c.ReduceJournal), len(got.journal))
			}
			for i, v := range c.ReduceJournal {
				got.journal[i] = math.Float64bits(v)
			}
			got.msgs, got.bytes = c.Stats.TotalMessages(), c.Stats.TotalBytes()
			got.now, got.events = c.Env.Now(), c.Env.Events()
			if !reflect.DeepEqual(got, row.want) {
				t.Fatalf("collective drifted:\n got %#v\nwant %#v", got, row.want)
			}
			if want := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}; !slices.Equal(*hooks, want) {
				t.Errorf("AtBarrier ran hooks %v, want %v: both, in registration order, at each of the six instants", *hooks, want)
			}
		})
	}
}

// atBarrierOrder registers two AtBarrier hooks on c, which will run the
// collectives ops in order, and returns the log of which hook ran
// when. Each hook checks the instant it runs at: the epoch it is handed
// is the cluster's, advanced once per collective; a reduction's result
// is already journaled; and no release has departed, so every node's
// compute process is still parked.
func atBarrierOrder(t *testing.T, c *Cluster, ops []ReduceOp) *[]int {
	var log []int
	for h := range 2 {
		c.AtBarrier = append(c.AtBarrier, func(epoch int64) {
			log = append(log, h)
			r := int(epoch) - 1
			if r < 0 || r >= len(ops) || epoch != c.Epoch() || len(log) != 2*r+1+h {
				t.Errorf("hook %d handed epoch %d at cluster epoch %d, call %d", h, epoch, c.Epoch(), len(log))
				return
			}
			reductions := 0
			for _, op := range ops[:r+1] {
				if op != opBarrier {
					reductions++
				}
			}
			if len(c.ReduceJournal) != reductions || c.ReduceGen() != int64(reductions) {
				t.Errorf("epoch %d: %d journaled results at reduction generation %d, want %d", epoch, len(c.ReduceJournal), c.ReduceGen(), reductions)
			}
			for _, n := range c.Nodes {
				if n.parked == nil {
					t.Errorf("epoch %d: node %d already released when hook %d ran", epoch, n.ID, h)
				}
			}
		})
	}
	return &log
}

// TestTreeAllReduceAllocs: once warm, one all-reduce round on a 64-node
// radix-4 tree allocates nothing — up-vectors ride pooled payloads and
// decode straight into each node's round.
func TestTreeAllReduceAllocs(t *testing.T) {
	const nodes, period = 64, sim.Millisecond
	c := treeTestCluster(t, nodes, 4)
	defer c.Env.Shutdown()
	for _, n := range c.Nodes {
		c.Env.Spawn("reduce", func(p *sim.Proc) {
			for {
				c.AllReduce(p, n, OpSum, float64(n.ID))
				p.Sleep(period - p.Now()%period)
			}
		})
	}
	step := func() {
		if err := c.Env.RunUntil(c.Env.Now() + period); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	r0 := len(c.ReduceJournal)
	const runs = 50
	if got := testing.AllocsPerRun(runs, step); got != 0 {
		t.Errorf("a tree all-reduce round allocates %v times", got)
	}
	if got := len(c.ReduceJournal) - r0; got != runs+1 {
		t.Fatalf("%d reductions completed in %d periods", got, runs+1)
	}
	if want := float64(nodes * (nodes - 1) / 2); c.ReduceJournal[len(c.ReduceJournal)-1] != want {
		t.Fatalf("reduced %v, want %v", c.ReduceJournal[len(c.ReduceJournal)-1], want)
	}
}
