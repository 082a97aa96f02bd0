// Scale-out experiment: the hierarchical-coherence layer's claim is
// that synchronization and invalidation cost O(log N) / O(K) per node
// on the combining tree where the paper's flat protocol pays O(N)
// through single chokepoints — while every data word stays
// bit-identical, because the tree only changes message routing, never
// combination order. This file measures both sides of that claim with
// two cluster-level microbenchmarks (no compiler in the loop) swept
// over N x {flat, tree}, plus one full application run at N=64 whose
// final arrays are compared bit-for-bit across topologies.
package bench

import (
	"fmt"
	"math"
	"strings"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// ScaleNodes is the sweep's cluster sizes. The first is the paper's
// own size (where flat is perfectly adequate); the last is 128x past
// it, where the flat barrier serializes a thousand messages through
// node 0.
var ScaleNodes = []int{8, 64, 256, 1024}

// ScaleCell is one (nodes, topology) configuration's measurements.
type ScaleCell struct {
	Nodes int
	Topo  config.Topology
	Radix int

	Barrier    sim.Time // steady-state latency of one barrier
	Reduce     sim.Time // steady-state latency of one AllReduce
	ReduceBits uint64   // float64 bits of the final reduction result
	SyncMsgs   int64    // whole sync-microbench message count
	SyncBytes  int64    // whole sync-microbench wire bytes

	InvalMsgs   int64    // messages to invalidate N-2 sharers of one block
	InvalBytes  int64    // wire bytes of that invalidation round
	InvalRounds int64    // per-cluster relay dispatches (tree only)
	InvalHome   int64    // messages the home itself sends in the round
	InvalLat    sim.Time // store to write-grant-collected on the writer
}

// scaleCluster assembles a protocol-attached cluster for a sync/inval
// microbenchmark, partitioned across `parts` PDES shards when parts >
// 1 (same contiguous node split as the runtime). run drives the
// simulation to completion on either engine.
type scaleCluster struct {
	mc   config.Machine
	c    *tempest.Cluster
	pr   *protocol.Proto
	base int
	run  func() error
}

func newScaleCluster(n int, topo config.Topology, parts int) *scaleCluster {
	mc := config.Default().WithNodes(n).WithTopology(topo)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", mc.PageSize)
	s := &scaleCluster{mc: mc, base: base}
	if parts > n {
		parts = n
	}
	if parts > 1 {
		var shards *sim.Shards
		s.c, shards = tempest.NewShardedCluster(sp, parts, 0)
		s.run = func() error {
			err := shards.Run()
			shards.Shutdown()
			return err
		}
	} else {
		env := sim.NewEnv()
		s.c = tempest.NewCluster(env, sp)
		s.run = env.Run
	}
	s.pr = protocol.Attach(s.c)
	return s
}

// measureSync runs the synchronization microbenchmark on one
// configuration: every node spins through warm-up barriers, a timed
// barrier phase, and a timed AllReduce phase (each node contributing
// sqrt(i+1), so any change in combination order shows up in the
// result's mantissa). Latencies are read from node 0's clock; the
// reduction result is identical on every node by construction and
// captured from node 0.
func measureSync(n int, topo config.Topology, parts int) (ScaleCell, error) {
	const warm, iters = 2, 4
	s := newScaleCluster(n, topo, parts)
	cell := ScaleCell{Nodes: n, Topo: topo, Radix: s.mc.EffectiveRadix()}
	var t0, t1, t2 sim.Time
	for i := 0; i < n; i++ {
		i := i
		node := s.c.Nodes[i]
		node.Env.Spawn(fmt.Sprintf("sync-%d", i), func(p *sim.Proc) {
			for k := 0; k < warm; k++ {
				s.c.Barrier(p, node)
			}
			if i == 0 {
				t0 = p.Now()
			}
			for k := 0; k < iters; k++ {
				s.c.Barrier(p, node)
			}
			if i == 0 {
				t1 = p.Now()
			}
			var r float64
			for k := 0; k < iters; k++ {
				r = s.c.AllReduce(p, node, tempest.OpSum, math.Sqrt(float64(i+1)))
			}
			if i == 0 {
				t2 = p.Now()
				cell.ReduceBits = math.Float64bits(r)
			}
		})
	}
	if err := s.run(); err != nil {
		return cell, fmt.Errorf("sync microbench n=%d topo=%s: %w", n, topo, err)
	}
	cell.Barrier = (t1 - t0) / iters
	cell.Reduce = (t2 - t1) / iters
	cell.SyncMsgs = s.c.Stats.TotalMessages()
	cell.SyncBytes = s.c.Stats.TotalBytes()
	return cell, nil
}

// runInval runs the invalidation microbenchmark once: every node but
// the home reads one block (becoming a sharer), then node 1 upgrades
// it, forcing the home to invalidate the other N-2 copies — unicast
// under flat, through per-cluster relays with combined acks under
// tree. With withWrite false the write phase is skipped; the delta
// between the two runs isolates the invalidation round exactly (the
// read phase's schedule is deterministic and common to both).
func runInval(n int, topo config.Topology, parts, withWrite int) (msgs, bytes, rounds, home int64, lat sim.Time, err error) {
	s := newScaleCluster(n, topo, parts)
	addr := s.base
	for i := 0; i < n; i++ {
		i := i
		node := s.c.Nodes[i]
		node.Env.Spawn(fmt.Sprintf("inval-%d", i), func(p *sim.Proc) {
			if i != 0 {
				node.LoadF64(p, addr)
			}
			node.WaitPending(p)
			s.c.Barrier(p, node)
			if i == 1 && withWrite != 0 {
				t0 := p.Now()
				node.StoreF64(p, addr, 1.0)
				node.WaitPending(p) // gates on the grant, which gates on every ack
				lat = p.Now() - t0
			} else {
				node.WaitPending(p)
			}
			s.c.Barrier(p, node)
		})
	}
	if err := s.run(); err != nil {
		return 0, 0, 0, 0, 0, fmt.Errorf("inval microbench n=%d topo=%s: %w", n, topo, err)
	}
	return s.c.Stats.TotalMessages(), s.c.Stats.TotalBytes(), s.pr.InvalRounds(),
		s.c.Stats.Nodes[0].MsgsSent, lat, nil
}

// measureInval fills in one cell's invalidation-round columns: the
// delta between the write-phase and read-only runs isolates the round.
func measureInval(cell *ScaleCell, parts int) error {
	m0, b0, _, h0, _, err := runInval(cell.Nodes, cell.Topo, parts, 0)
	if err != nil {
		return err
	}
	m1, b1, rounds, h1, lat, err := runInval(cell.Nodes, cell.Topo, parts, 1)
	if err != nil {
		return err
	}
	cell.InvalMsgs, cell.InvalBytes, cell.InvalRounds = m1-m0, b1-b0, rounds
	cell.InvalHome, cell.InvalLat = h1-h0, lat
	return nil
}

// ScaleSweep measures the full N x {flat, tree} grid. parts > 1 runs
// every simulation under the conservative-PDES window scheduler; every
// reported number is bit-identical either way. The tree's reduction
// result is REQUIRED to match the flat protocol's bit-for-bit at every
// N — that is the tentpole's contract, not a tolerance comparison.
func ScaleSweep(parts int) ([]ScaleCell, error) {
	var cells []ScaleCell
	for _, n := range ScaleNodes {
		var flatBits, treeBits uint64
		for _, topo := range []config.Topology{config.Flat, config.TreeTopo} {
			cell, err := measureSync(n, topo, parts)
			if err != nil {
				return nil, err
			}
			if err := measureInval(&cell, parts); err != nil {
				return nil, err
			}
			if topo == config.Flat {
				flatBits = cell.ReduceBits
			} else {
				treeBits = cell.ReduceBits
			}
			cells = append(cells, cell)
		}
		if flatBits != treeBits {
			return nil, fmt.Errorf("scale n=%d: tree reduction %x differs from flat %x (data words must be bit-identical)",
				n, treeBits, flatBits)
		}
	}
	return cells, nil
}

// Scale renders the scale-out experiment: the microbenchmark sweep
// plus a full jacobi run at N=64 under both topologies, whose final
// arrays must agree bit-for-bit (the flat side is the semantic
// reference; the tree may only reroute messages).
func Scale(sizing Sizing, parts int) (string, error) {
	cells, err := ScaleSweep(parts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Scale-out: flat vs combining-tree hierarchical coherence\n")
	if parts > 1 {
		fmt.Fprintf(&b, "(conservative PDES, %d partitions; statistics bit-identical to sequential)\n", parts)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %5s %-5s %5s | %11s %11s | %11s %7s %6s | %9s %10s\n",
		"N", "topo", "radix", "barrier", "allreduce", "inval lat", "home tx", "rounds", "sync msgs", "inval msgs")
	for _, c := range cells {
		radix := "-"
		if c.Topo == config.TreeTopo {
			radix = fmt.Sprintf("%d", c.Radix)
		}
		fmt.Fprintf(&b, "  %5d %-5s %5s | %9.1fus %9.1fus | %9.1fus %7d %6d | %9d %10d\n",
			c.Nodes, c.Topo, radix, us(c.Barrier), us(c.Reduce),
			us(c.InvalLat), c.InvalHome, c.InvalRounds, c.SyncMsgs, c.InvalMsgs)
	}
	b.WriteString("\n  reduction results bit-identical flat vs tree at every N;\n")
	b.WriteString("  message counts are topology-invariant by design (every sharer\n")
	b.WriteString("  still told, every ack still sent) — the tree wins on the home's\n")
	b.WriteString("  serialized sends (home tx) and the round's critical path (inval lat)\n")

	// Application leg: one real program at N=64 on both topologies.
	flat, tree, err := scaleAppPair("jacobi", 64, sizing, parts)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n  jacobi, 64 nodes, rtelim: flat %.2fms %d msgs | tree %.2fms %d msgs | arrays bit-identical\n",
		ms(flat.Elapsed), flat.Stats.TotalMessages(), ms(tree.Elapsed), tree.Stats.TotalMessages())
	return b.String(), nil
}

// scaleAppPair runs one application at N nodes under both topologies
// and fails unless every checked array matches bit-for-bit.
func scaleAppPair(app string, nodes int, sizing Sizing, parts int) (flat, tree *runtime.Result, err error) {
	a, err := apps.ByName(app)
	if err != nil {
		return nil, nil, err
	}
	params := ParamsFor(a, sizing)
	run := func(topo config.Topology) (*runtime.Result, error) {
		prog, err := a.Program(params)
		if err != nil {
			return nil, err
		}
		mc := config.Default().WithNodes(nodes).WithTopology(topo)
		opts := runtime.Options{Machine: mc, Opt: compiler.OptRTElim}
		if parts > 1 {
			opts.Partitions = parts
		}
		return runtime.Run(prog, opts)
	}
	if flat, err = run(config.Flat); err != nil {
		return nil, nil, fmt.Errorf("%s n=%d flat: %w", app, nodes, err)
	}
	if tree, err = run(config.TreeTopo); err != nil {
		return nil, nil, fmt.Errorf("%s n=%d tree: %w", app, nodes, err)
	}
	for _, name := range a.CheckArrays {
		fd, td := flat.ArrayData(name), tree.ArrayData(name)
		if len(fd) != len(td) {
			return nil, nil, fmt.Errorf("%s n=%d: array %s length %d flat vs %d tree", app, nodes, name, len(fd), len(td))
		}
		for i := range fd {
			if math.Float64bits(fd[i]) != math.Float64bits(td[i]) {
				return nil, nil, fmt.Errorf("%s n=%d: array %s[%d] = %x tree, %x flat (data words must be bit-identical)",
					app, nodes, name, i, math.Float64bits(td[i]), math.Float64bits(fd[i]))
			}
		}
	}
	return flat, tree, nil
}
