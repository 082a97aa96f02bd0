package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// Part A of the per-layer metrics. Each kernel drives one package's
// exported API with a fixed operation count and reports host
// nanoseconds per operation (unless its name says otherwise); the value
// kept is the median of kernelReps repetitions. A kernel that measures
// inside a simulation reads the host clock from a simulated process:
// processes and the scheduler run strictly one at a time, so the
// interval between two readings is exactly the host cost of the events
// in between.

const kernelReps = 5

// A kernel measures one fixture and reports one or more metrics from it.
type kernel func(scale int) (map[string]float64, error)

var kernels = []kernel{
	kSimEvents, kSimProcs, kSimPDES,
	kMemory,
	kTempestLoad, kTempestHandler, kTempestSync,
	kReadMiss, kWriteMissInval, kSendBlocks, kMkWritable, kFig1,
	kNetwork, kCoalesce,
	kRuntimeLoops, kRuntimeFixed,
	kParse, kCompiler, kSections, kVerify,
	kCheckpoint, kTraceEmit,
}

// runKernels runs every kernel kernelReps times and returns each
// metric's median. smoke divides the operation counts by ten.
func runKernels(smoke bool) (map[string]float64, error) {
	scale, reps := 1, kernelReps
	if smoke {
		scale, reps = 10, 1
	}
	samples := map[string][]float64{}
	for _, k := range kernels {
		for r := 0; r < reps; r++ {
			m, err := k(scale)
			if err != nil {
				return nil, err
			}
			for name, v := range m {
				samples[name] = append(samples[name], v)
			}
		}
	}
	out := make(map[string]float64, len(samples))
	for name, vs := range samples {
		out[name] = median(vs)
	}
	return out, nil
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// --- sim -------------------------------------------------------------------

// churn keeps an Env's queue at a fixed depth: every executed event
// schedules one successor at a pseudo-random later time until n have
// run. With delivery set the successors are keyed deliveries that all
// land on the same instant, so pop order is decided by the (sent, src,
// seq) key.
func churn(depth, n int, delivery bool) float64 {
	env := sim.NewEnv()
	left, rng, seq := n, uint32(1), uint32(0)
	var fn func(any)
	fn = func(any) {
		if left == 0 {
			return
		}
		left--
		rng = rng*1664525 + 1013904223
		if delivery {
			seq++
			env.ScheduleDelivery(env.Now()/1000*1000+1000, env.Now(), int(rng>>28), seq, fn, nil)
		} else {
			env.ScheduleArg(env.Now()+1+sim.Time(rng>>16)%sim.Time(2*depth), fn, nil)
		}
	}
	for i := 0; i < depth; i++ {
		env.ScheduleArg(sim.Time(i), fn, nil)
	}
	t0 := time.Now()
	if err := env.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), n+depth)
}

func kSimEvents(scale int) (map[string]float64, error) {
	n := 400000 / scale
	return map[string]float64{
		"sim.event_ns":      churn(64, n, false),
		"sim.event_deep_ns": churn(4096, n, false),
		"sim.delivery_ns":   churn(64, n, true),
	}, nil
}

func kSimProcs(scale int) (map[string]float64, error) {
	n := 100000 / scale
	out := map[string]float64{}

	env := sim.NewEnv()
	for i := 0; i < 2; i++ {
		env.Spawn("sleeper", func(p *sim.Proc) {
			for k := 0; k < n; k++ {
				p.Sleep(1)
			}
		})
	}
	t0 := time.Now()
	if err := env.Run(); err != nil {
		return nil, err
	}
	out["sim.proc_switch_ns"] = perOp(time.Since(t0), 2*n)

	env = sim.NewEnv()
	var ping, pong sim.Signal
	env.Spawn("ping", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			pong.Fire()
			ping.Wait(p)
			ping.Reset()
		}
	})
	env.Spawn("pong", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			pong.Wait(p)
			pong.Reset()
			ping.Fire()
		}
	})
	t0 = time.Now()
	if err := env.Run(); err != nil {
		return nil, err
	}
	out["sim.signal_wake_ns"] = perOp(time.Since(t0), 2*n)
	return out, nil
}

// kSimPDES runs two partitions that both tick once per lookahead
// window, partition 0 posting one mail to partition 1 per tick: every
// window needs the barrier, the mail swap and the horizon computation.
func kSimPDES(scale int) (map[string]float64, error) {
	if goruntime.GOMAXPROCS(0) < 2 {
		return nil, fmt.Errorf("the PDES kernels need 2 CPUs; this host offers %d", goruntime.GOMAXPROCS(0))
	}
	const lookahead = 20 * sim.Microsecond
	n := 20000 / scale
	window := func(inline bool) (float64, error) {
		envs := []*sim.Env{sim.NewEnv(), sim.NewEnv()}
		s := sim.NewShards(envs, lookahead)
		defer s.Shutdown()
		s.SetInline(inline)
		nop := func(any) {}
		for part, env := range envs {
			left, seq := n, uint32(0)
			var tick func(any)
			tick = func(any) {
				if left--; left <= 0 {
					return
				}
				if part == 0 {
					seq++
					s.Post(0, 1, env.Now()+lookahead, env.Now(), 0, seq, nop, nil)
				}
				env.ScheduleArg(env.Now()+lookahead, tick, nil)
			}
			env.ScheduleArg(0, tick, nil)
		}
		t0 := time.Now()
		err := s.Run()
		return perOp(time.Since(t0), n), err
	}
	par, err := window(false)
	if err != nil {
		return nil, err
	}
	inl, err := window(true)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"sim.pdes_window_ns": par, "sim.pdes_window_inline_ns": inl}, nil
}

// --- memory ----------------------------------------------------------------

var sink float64

func kMemory(scale int) (map[string]float64, error) {
	mc := config.Default().WithNodes(1)
	sp := memory.NewSpace(mc)
	const size = 64 << 10
	base := sp.Alloc("x", size)
	m := memory.NewNodeMem(sp, 0)
	n := 2000000 / scale
	out := map[string]float64{}

	t0 := time.Now()
	acc := 0.0
	for i, a := 0, base; i < n; i++ {
		if m.CheckLoad(a) {
			acc += m.ReadF64(a)
		}
		if a += 8; a == base+size {
			a = base
		}
	}
	out["memory.load_hit_ns"] = perOp(time.Since(t0), n)
	sink = acc

	t0 = time.Now()
	for i, a := 0, base; i < n; i++ {
		if m.CheckStore(a) {
			m.WriteF64(a, 1.5)
		}
		if a += 8; a == base+size {
			a = base
		}
	}
	out["memory.store_hit_ns"] = perOp(time.Since(t0), n)

	data := make([]byte, mc.BlockSize)
	b0, nb := sp.Block(base), size/mc.BlockSize
	t0 = time.Now()
	for i := 0; i < n/4; i++ {
		m.InstallBlock(b0+i%nb, data)
	}
	out["memory.install_block_ns"] = perOp(time.Since(t0), n/4)
	return out, nil
}

// --- tempest ---------------------------------------------------------------

// cluster assembles a machine with bytes of shared data and, when
// asked, the coherence protocol on it.
func cluster(mc config.Machine, bytes int, withProtocol bool) (*tempest.Cluster, *protocol.Proto, int) {
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", bytes)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	var pr *protocol.Proto
	if withProtocol {
		pr = protocol.Attach(c)
	}
	return c, pr, base
}

func kTempestLoad(scale int) (map[string]float64, error) {
	const size = 64 << 10
	c, _, base := cluster(config.Default().WithNodes(1), size, false)
	n := 2000000 / scale
	var d time.Duration
	c.Env.Spawn("loader", func(p *sim.Proc) {
		node := c.Nodes[0]
		t0 := time.Now()
		acc := 0.0
		for i, a := 0, base; i < n; i++ {
			acc += node.LoadF64(p, a)
			if a += 8; a == base+size {
				a = base
			}
		}
		d = time.Since(t0)
		sink = acc
	})
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return map[string]float64{"tempest.load_hit_ns": perOp(d, n)}, nil
}

// kTempestHandler bounces one message between two nodes' protocol
// engines: each operation is a send, a delivery and a dispatch to a
// handler that does nothing but reply.
func kTempestHandler(scale int) (map[string]float64, error) {
	const kind = network.Kind(100)
	c, _, _ := cluster(config.Default().WithNodes(2), 4096, false)
	n := 200000 / scale
	left := n
	for _, node := range c.Nodes {
		node.On(kind, func(hc *tempest.HContext, m *network.Message) {
			if left--; left <= 0 {
				return
			}
			r := c.Net.NewMessage(hc.Node.ID)
			r.Dst, r.Kind, r.Size = m.Src, kind, 8
			hc.Send(r)
		})
	}
	c.Env.Schedule(0, func() {
		m := c.Net.NewMessage(0)
		m.Dst, m.Kind, m.Size = 1, kind, 8
		c.Nodes[0].SendFromProto(m)
	})
	t0 := time.Now()
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return map[string]float64{"tempest.handler_ns": perOp(time.Since(t0), n)}, nil
}

// syncRounds times rounds of one collective on an n-node cluster; the
// clock starts after a warm-up round so cluster assembly and the first
// dispatch of every process stay outside.
func syncRounds(mc config.Machine, rounds int, reduce bool) (float64, error) {
	c, _, _ := cluster(mc, 4096, false)
	var d time.Duration
	for _, node := range c.Nodes {
		node.Env.Spawn("sync", func(p *sim.Proc) {
			c.Barrier(p, node)
			var t0 time.Time
			if node.ID == 0 {
				t0 = time.Now()
			}
			for k := 0; k < rounds; k++ {
				if reduce {
					c.AllReduce(p, node, tempest.OpSum, math.Sqrt(float64(node.ID+1)))
				} else {
					c.Barrier(p, node)
				}
			}
			if node.ID == 0 {
				d = time.Since(t0)
			}
		})
	}
	if err := c.Env.Run(); err != nil {
		return 0, err
	}
	return perOp(d, rounds), nil
}

func kTempestSync(scale int) (map[string]float64, error) {
	tree := config.Default().WithNodes(256).WithTopology(config.TreeTopo).WithRadix(4)
	out := map[string]float64{}
	var err error
	if out["tempest.barrier_n8_ns"], err = syncRounds(config.Default(), 2000/scale, false); err != nil {
		return nil, err
	}
	if out["tempest.barrier_n256_tree_ns"], err = syncRounds(tree, 50/scale, false); err != nil {
		return nil, err
	}
	if out["tempest.allreduce_n256_tree_ns"], err = syncRounds(tree, 50/scale, true); err != nil {
		return nil, err
	}
	return out, nil
}

// --- protocol --------------------------------------------------------------

// homedAt lists the first address of every block homed at node home.
func homedAt(sp *memory.Space, base, bytes, home int) []int {
	var addrs []int
	for a := base; a < base+bytes; a += sp.BlockSize() {
		if sp.Home(a) == home {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// kReadMiss has node 1 read, block by block, data homed at node 0: the
// whole request, directory, reply, install chain per block. The second
// block it touches is on a page already mapped, so its simulated stall
// is Table 1's read-miss time.
func kReadMiss(scale int) (map[string]float64, error) {
	mc := config.Default().WithNodes(2)
	bytes := 1 << 20 / scale
	c, _, base := cluster(mc, bytes, true)
	addrs := homedAt(c.Space, base, bytes, 0)
	var d time.Duration
	var stall sim.Time
	c.Env.Spawn("reader", func(p *sim.Proc) {
		node := c.Nodes[1]
		node.LoadF64(p, addrs[0])
		s0 := p.Now()
		node.LoadF64(p, addrs[1])
		stall = p.Now() - s0
		t0 := time.Now()
		for _, a := range addrs[2:] {
			node.LoadF64(p, a)
		}
		d = time.Since(t0)
	})
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"protocol.readmiss_ns":     perOp(d, len(addrs)-2),
		"protocol.readmiss_sim_us": float64(stall) / 1e3,
	}, nil
}

// kWriteMissInval has nodes 1..7 read blocks homed at node 0, then node
// 0 write each: every store invalidates seven sharers and collects
// their acknowledgements.
func kWriteMissInval(scale int) (map[string]float64, error) {
	mc := config.Default()
	bytes := 2 << 20 / scale
	c, _, base := cluster(mc, bytes, true)
	addrs := homedAt(c.Space, base, bytes, 0)
	var d time.Duration
	for _, node := range c.Nodes {
		node.Env.Spawn("sharer", func(p *sim.Proc) {
			if node.ID != 0 {
				for _, a := range addrs {
					node.LoadF64(p, a)
				}
			}
			c.Barrier(p, node)
			if node.ID == 0 {
				t0 := time.Now()
				for _, a := range addrs {
					node.StoreF64(p, a, 1)
				}
				node.WaitPending(p)
				d = time.Since(t0)
			}
			c.Barrier(p, node)
		})
	}
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return map[string]float64{"protocol.writemiss_inval_ns": perOp(d, len(addrs))}, nil
}

// blockRuns groups the blocks homed at node home into per-page runs.
func blockRuns(sp *memory.Space, base, bytes, home int) (runs []protocol.BlockRun, blocks int) {
	mc := sp.Machine()
	for a := base; a < base+bytes; a += mc.PageSize {
		if sp.Home(a) == home {
			runs = append(runs, protocol.BlockRun{Start: sp.Block(a), N: mc.PageSize / mc.BlockSize})
			blocks += mc.PageSize / mc.BlockSize
		}
	}
	return runs, blocks
}

// kSendBlocks is the compiler-directed transfer in steady state: node 0
// sends its own blocks to node 1's open frames, in bulk and through the
// coalescing scheduler.
func kSendBlocks(scale int) (map[string]float64, error) {
	rounds := 40 / scale
	send := func(mode protocol.SendMode) (float64, error) {
		mc := config.Default().WithNodes(2)
		const bytes = 256 << 10
		c, pr, base := cluster(mc, bytes, true)
		if mode == protocol.SendAggregate {
			pr.EnableAggregation(mc.EffectiveAggDelay())
		}
		runs, blocks := blockRuns(c.Space, base, bytes, 0)
		var t0 time.Time
		var d time.Duration
		c.Env.Spawn("producer", func(p *sim.Proc) {
			c.Barrier(p, c.Nodes[0])
			t0 = time.Now()
			for k := 0; k < rounds; k++ {
				pr.Node(0).SendBlocks(p, 1, runs, mode)
				pr.Node(0).DrainAggregated(p)
			}
		})
		c.Env.Spawn("consumer", func(p *sim.Proc) {
			pr.Node(1).ImplicitWritable(p, runs, true)
			c.Barrier(p, c.Nodes[1])
			for k := 0; k < rounds; k++ {
				pr.Node(1).ExpectBlocks(blocks)
				pr.Node(1).ReadyToRecv(p)
			}
			d = time.Since(t0)
		})
		if err := c.Env.Run(); err != nil {
			return 0, err
		}
		return perOp(d, rounds*blocks), nil
	}
	bulk, err := send(protocol.SendBulk)
	if err != nil {
		return nil, err
	}
	agg, err := send(protocol.SendAggregate)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"protocol.sendblocks_ns_per_block": bulk, "protocol.sendblocks_agg_ns_per_block": agg}, nil
}

// kMkWritable has node 1 take blocks homed at node 0 writable, a page
// per call: one pipelined request per call, data shipped in bulk.
func kMkWritable(scale int) (map[string]float64, error) {
	mc := config.Default().WithNodes(2)
	bytes := 2 << 20 / scale
	c, pr, base := cluster(mc, bytes, true)
	runs, blocks := blockRuns(c.Space, base, bytes, 0)
	var d time.Duration
	c.Env.Spawn("writer", func(p *sim.Proc) {
		t0 := time.Now()
		for i := range runs {
			pr.Node(1).MkWritable(p, runs[i:i+1])
		}
		d = time.Since(t0)
	})
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return map[string]float64{"protocol.mkwritable_ns_per_block": perOp(d, blocks)}, nil
}

// kFig1 counts the messages one steady-state producer-to-consumer block
// transfer costs (the block's home is a third node): eight through the
// default protocol, one under compiler control. Two runs that differ by
// ten transfers isolate the steady state; the three-node barriers' own
// messages (two arrivals, two releases each) are taken out.
func kFig1(int) (map[string]float64, error) {
	const extra, barrierMsgs = 10, 4
	total := func(direct bool, iters int) (int64, error) {
		mc := config.Default().WithNodes(3)
		c, pr, base := cluster(mc, 4*mc.PageSize, true)
		addr := base + 2*mc.PageSize // homed at node 2
		run := []protocol.BlockRun{{Start: addr / mc.BlockSize, N: 1}}
		c.Env.Spawn("producer", func(p *sim.Proc) {
			n, x := c.Nodes[0], pr.Node(0)
			if direct {
				x.MkWritable(p, run)
				c.Barrier(p, n)
				c.Barrier(p, n)
			}
			for i := 0; i < iters; i++ {
				n.StoreF64(p, addr, float64(i))
				if direct {
					x.SendBlocks(p, 1, run, protocol.SendBulk)
				} else {
					c.Barrier(p, n)
				}
				c.Barrier(p, n)
			}
		})
		c.Env.Spawn("consumer", func(p *sim.Proc) {
			n, x := c.Nodes[1], pr.Node(1)
			if direct {
				c.Barrier(p, n)
				x.ImplicitWritable(p, run, true)
				c.Barrier(p, n)
			}
			for i := 0; i < iters; i++ {
				if direct {
					x.ExpectBlocks(1)
					x.ReadyToRecv(p)
					n.Mem.ReadF64(addr)
				} else {
					c.Barrier(p, n)
					n.LoadF64(p, addr)
				}
				c.Barrier(p, n)
			}
		})
		c.Env.Spawn("home", func(p *sim.Proc) {
			barriers := 2 * iters
			if direct {
				barriers = 2 + iters
			}
			for i := 0; i < barriers; i++ {
				c.Barrier(p, c.Nodes[2])
			}
		})
		err := c.Env.Run()
		return c.Stats.TotalMessages(), err
	}
	out := map[string]float64{}
	for name, direct := range map[string]bool{"protocol.fig1_msgs_default": false, "protocol.fig1_msgs_direct": true} {
		few, err := total(direct, 1)
		if err != nil {
			return nil, err
		}
		many, err := total(direct, 1+extra)
		if err != nil {
			return nil, err
		}
		barriersPerTransfer := 2
		if direct {
			barriersPerTransfer = 1
		}
		out[name] = float64(many-few)/extra - float64(barriersPerTransfer*barrierMsgs)
	}
	return out, nil
}

// --- network ---------------------------------------------------------------

// chain sends n messages from endpoint 0 to endpoint 1, each sent when
// the one before is delivered, and reports host ns and heap allocations
// per message. The first tenth warms the freelists outside the
// measurement.
func chain(mc config.Machine, n int, block bool) (ns, allocs float64, err error) {
	env := sim.NewEnv()
	net := network.New(env, mc.WithNodes(2), stats.New(2))
	warm := n / 10
	left := n + warm
	var t0 time.Time
	var ms0, ms1 goruntime.MemStats
	send := func() {
		m := net.NewMessage(0)
		m.Src, m.Dst, m.Kind, m.Size = 0, 1, 7, 8
		if block {
			m.Data, m.DataPooled, m.Size = net.AllocBlock(0), true, mc.BlockSize
		}
		net.Send(m)
	}
	net.Bind(0, func(m *network.Message) { net.Recycle(m) })
	net.Bind(1, func(m *network.Message) {
		net.Recycle(m)
		if left--; left == n {
			goruntime.ReadMemStats(&ms0)
			t0 = time.Now()
		}
		if left > 0 {
			send()
		}
	})
	env.Schedule(0, send)
	if err := env.Run(); err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	goruntime.ReadMemStats(&ms1)
	return perOp(d, n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

func kNetwork(scale int) (map[string]float64, error) {
	n := 200000 / scale
	mc := config.Default()
	out := map[string]float64{}
	var err error
	if out["network.send_ns"], _, err = chain(mc, n, false); err != nil {
		return nil, err
	}
	if out["network.send_block_ns"], out["network.allocs_per_msg"], err = chain(mc, n, true); err != nil {
		return nil, err
	}
	// Any active fault arms the reliable layer (sequence numbers, acks,
	// retransmit timers); a nanosecond of jitter loses nothing.
	if out["network.send_reliable_ns"], _, err = chain(mc.WithFaults(config.Faults{Jitter: 1}), n/4, false); err != nil {
		return nil, err
	}
	return out, nil
}

// kCoalesce appends sixteen one-block segments to a gather buffer,
// flushes them as one carrier and scatters them at the receiver.
func kCoalesce(scale int) (map[string]float64, error) {
	const segs, carrier, ctrl = 16, network.Kind(9), 8
	mc := config.Default().WithNodes(2)
	env := sim.NewEnv()
	net := network.New(env, mc, stats.New(2))
	co := net.AttachCoalescer(0, carrier, ctrl, mc.EffectiveAggDelay(), net.Send)
	payload := make([]byte, mc.BlockSize)
	rounds := 10000 / scale
	left := rounds
	batch := func() {
		for s := 0; s < segs; s++ {
			co.Append(1, 7, s*mc.BlockSize, 0, 0, payload, false)
		}
		co.FlushDst(1)
	}
	scattered := 0
	net.Bind(1, func(m *network.Message) {
		network.ForEachSegment(m.Data, int(m.Arg), func(network.Kind, int, int64, int64, []byte) { scattered++ })
		net.Recycle(m)
		if left--; left > 0 {
			batch()
		}
	})
	env.Schedule(0, batch)
	t0 := time.Now()
	if err := env.Run(); err != nil {
		return nil, err
	}
	d := time.Since(t0)
	if scattered != rounds*segs {
		return nil, fmt.Errorf("coalescer kernel: %d segments arrived, %d sent", scattered, rounds*segs)
	}
	return map[string]float64{"network.coalesce_ns_per_seg": perOp(d, scattered)}, nil
}

// --- runtime ---------------------------------------------------------------

func timedRun(src string, params map[string]int, opts runtime.Options) (time.Duration, error) {
	prog, err := lang.ParseWithOverrides(src, params)
	if err != nil {
		return 0, err
	}
	// The first run pays the analysis; the second is the measurement.
	if _, err := runtime.Run(prog, opts); err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = runtime.Run(prog, opts)
	return time.Since(t0), err
}

// kRuntimeLoops times whole runs whose cost is the loop executor's and
// divides by the array accesses the loop bounds imply.
func kRuntimeLoops(scale int) (map[string]float64, error) {
	out := map[string]float64{}
	n, its := 256, 8/min(scale, 4)
	jacobi := map[string]int{"N": n, "ITERS": its}
	// Initialisation stores 2n^2+2n words; a sweep loads 4 and stores 1
	// per interior point, the copy-back loads 1 and stores 1.
	accesses := 2*n*n + 2*n + its*(n-2)*(n-2)*7
	d, err := timedRun(apps.Jacobi().Source, jacobi, runtime.Options{Machine: config.Default().WithNodes(1), Opt: compiler.OptRTElim})
	if err != nil {
		return nil, err
	}
	out["runtime.loop_ns_per_access"] = perOp(d, accesses)
	d, err = timedRun(apps.Jacobi().Source, jacobi, runtime.Options{Machine: config.Default(), Backend: runtime.MessagePassing})
	if err != nil {
		return nil, err
	}
	out["runtime.mp_ns_per_access"] = perOp(d, accesses)

	// irregular with a token structured part (M=8): what is left is the
	// indirect loop, 7 loads and 1 store per point, and its copy-back;
	// the compiled path declines indirect subscripts, so the tree-walking
	// interpreter executes it.
	in, its := 32768, 8/min(scale, 4)
	accesses = 4*in + its*(in-2)*10
	d, err = timedRun(apps.Irregular().Source, map[string]int{"N": in, "M": 8, "ITERS": its},
		runtime.Options{Machine: config.Default().WithNodes(1), Opt: compiler.OptRTElim})
	if err != nil {
		return nil, err
	}
	out["runtime.interp_ns_per_access"] = perOp(d, accesses)
	return out, nil
}

// fixedSource is one trivial loop: what a run of it costs is cluster
// assembly, process spawn and teardown.
const fixedSource = `
PROGRAM fixed
PARAM n = 1024
REAL a(n)
DISTRIBUTE a(BLOCK)
FORALL (i = 1:n)
  a(i) = i
END FORALL
END
`

func kRuntimeFixed(int) (map[string]float64, error) {
	out := map[string]float64{}
	for name, mc := range map[string]config.Machine{
		"runtime.run_fixed_n8_ms":   config.Default(),
		"runtime.run_fixed_n256_ms": config.Default().WithNodes(256).WithTopology(config.TreeTopo).WithRadix(4),
	} {
		d, err := timedRun(fixedSource, nil, runtime.Options{Machine: mc, Opt: compiler.OptRTElim})
		if err != nil {
			return nil, err
		}
		out[name] = d.Seconds() * 1e3
	}
	return out, nil
}

// --- front end ---------------------------------------------------------------

func kParse(scale int) (map[string]float64, error) {
	reps := 20 / min(scale, 4)
	bytes := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, a := range apps.All() {
			if _, err := lang.ParseWithOverrides(a.Source, a.PaperParams); err != nil {
				return nil, err
			}
			bytes += len(a.Source)
		}
	}
	return map[string]float64{"lang.parse_us_per_kb": float64(time.Since(t0).Microseconds()) / (float64(bytes) / 1024)}, nil
}

// eachLoop calls f for every parallel-loop instance the program's
// sequential loops unfold into, with env holding the loop variables.
func eachLoop(stmts []ir.Stmt, env map[string]int, f func(*ir.ParLoop)) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.ParLoop:
			f(st)
		case *ir.SeqLoop:
			for v, hi := st.Lo.Eval(env), st.Hi.Eval(env); v <= hi; v++ {
				env[st.Var] = v
				eachLoop(st.Body, env, f)
			}
			delete(env, st.Var)
		case *ir.Block:
			eachLoop(st.Body, env, f)
		}
	}
}

// kCompiler analyses lu at the paper's size for 8 nodes, uncached, and
// then instantiates the work partition and the communication schedule
// of every (loop, k) instance.
func kCompiler(scale int) (map[string]float64, error) {
	lu := apps.LU()
	params := lu.PaperParams
	if scale > 1 {
		params = lu.BenchParams
	}
	prog, err := lang.ParseWithOverrides(lu.Source, params)
	if err != nil {
		return nil, err
	}
	mc := config.Default()
	t0 := time.Now()
	an, err := compiler.New(prog, mc.Nodes, layoutsFor(prog, mc), mc.BlockSize)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"compiler.new_ms": time.Since(t0).Seconds() * 1e3}
	env := map[string]int{}
	for k, v := range prog.Params {
		env[k] = v
	}
	instances := 0
	t0 = time.Now()
	eachLoop(prog.Body, env, func(l *ir.ParLoop) {
		an.Partition(l, an.LoopRuleOf(l), env)
		instances++
	})
	out["compiler.partition_us"] = float64(time.Since(t0).Microseconds()) / float64(instances)
	t0 = time.Now() // the partitions are memoized now: what remains is the schedule itself
	eachLoop(prog.Body, env, func(l *ir.ParLoop) { an.Schedule(l, an.LoopRuleOf(l), env) })
	out["compiler.schedule_us"] = float64(time.Since(t0).Microseconds()) / float64(instances)
	return out, nil
}

func kSections(scale int) (map[string]float64, error) {
	n := 1000000 / scale
	a, b := sections.Rect(1, 512, 3, 300), sections.Rect(17, 400, 129, 512)
	t0 := time.Now()
	pts := 0
	for i := 0; i < n; i++ {
		pts += sections.Intersect(a, b).Count()
	}
	out := map[string]float64{"sections.intersect_ns": perOp(time.Since(t0), n)}
	runs := make([]sections.Run, 16)
	for i := range runs {
		runs[i] = sections.Run{Addr: i*4096 + 40*i, Bytes: 2048 + 8*i}
	}
	t0 = time.Now()
	for i := 0; i < n/8; i++ {
		pts += len(sections.BlockAlign(runs, 128))
	}
	out["sections.blockalign_ns"] = perOp(time.Since(t0), n/8)
	sink = float64(pts)
	return out, nil
}

func kVerify(int) (map[string]float64, error) {
	sh := apps.Shallow()
	out := map[string]float64{}
	for name, nodes := range map[string]int{"analysis.verify_n8_ms": 8, "analysis.verify_n64_ms": 64} {
		prog, err := lang.ParseWithOverrides(sh.Source, sh.BenchParams)
		if err != nil {
			return nil, err
		}
		mc := config.Default().WithNodes(nodes)
		an, err := compiler.New(prog, nodes, layoutsFor(prog, mc), mc.BlockSize)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rep := analysis.VerifyAnalysis(an, analysis.Levels()...)
		out[name] = time.Since(t0).Seconds() * 1e3
		if rep.HasErrors() {
			return nil, fmt.Errorf("verify kernel: shallow on %d nodes has %d verifier error(s)", nodes, rep.Errors())
		}
	}
	return out, nil
}

// --- checkpoint, trace -----------------------------------------------------------

// kCheckpoint takes a real checkpoint blob (jacobi's last capture, which
// the runtime persists for exactly this kind of inspection) and times
// the codec on it.
func kCheckpoint(scale int) (map[string]float64, error) {
	dir := filepath.Join(scratchDir, "ckpt")
	prog, err := lang.ParseWithOverrides(apps.Jacobi().Source, map[string]int{"N": 256, "ITERS": 1})
	if err != nil {
		return nil, err
	}
	if _, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim, Checkpoint: true, CkptDir: dir}); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(filepath.Join(dir, prog.Name+".ckpt"))
	if err != nil {
		return nil, err
	}
	reps := 8 / min(scale, 4)
	mb := float64(reps*len(blob)) / (1 << 20)
	var snap *checkpoint.Snapshot
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if snap, err = checkpoint.Decode(blob); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{"checkpoint.decode_mb_per_s": mb / time.Since(t0).Seconds()}
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if len(checkpoint.Encode(snap)) != len(blob) {
			return nil, fmt.Errorf("checkpoint kernel: re-encoding changed the blob's size")
		}
	}
	out["checkpoint.encode_mb_per_s"] = mb / time.Since(t0).Seconds()
	return out, nil
}

func kTraceEmit(scale int) (map[string]float64, error) {
	n := 200000 / scale
	tr := trace.New(8)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.Span(i&7, trace.LaneProto, "h:kernel", "handler", sim.Time(i), sim.Time(i+9), trace.Int("src", i&7), trace.Int("addr", i))
	}
	d := time.Since(t0)
	if got := len(tr.Events()); got < n {
		return nil, fmt.Errorf("trace kernel: %d events recorded, %d emitted", got, n)
	}
	return map[string]float64{"trace.emit_ns": perOp(d, n)}, nil
}
