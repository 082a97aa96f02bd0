package bench

import (
	"fmt"
	"strings"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/network"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// Fig1 reproduces Figure 1's point with a microbenchmark: the number
// of protocol messages one steady-state producer->consumer block
// transfer costs under the default protocol (8: read-request,
// put-data-request, put-data-response, read-response, write-request,
// invalidation, acknowledgement, write-grant) versus under
// compiler-directed transfer (1 tagged data message).
func Fig1() string {
	var b strings.Builder
	b.WriteString("Figure 1: messages per producer->consumer block transfer\n\n")

	iters := 10
	defaultMsgs := fig1Default(iters, nil)
	ccMsgs := fig1CC(iters)
	fmt.Fprintf(&b, "  default invalidation protocol : %.1f messages/transfer (paper: 8)\n", defaultMsgs)
	fmt.Fprintf(&b, "  compiler-directed (send)      : %.1f messages/transfer (paper: 1 + amortized sync)\n", ccMsgs)
	return b.String()
}

// Fig1Trace runs the default-protocol microbenchmark with the causal
// tracer attached and returns the trace: node 0 produces, node 1
// consumes, node 2 is the home, so every iteration exercises the full
// 8-message chain of Figure 1(a). Used by `paperbench -exp fig1
// -trace-out=...` and by the golden trace tests.
func Fig1Trace(iters int) *trace.Tracer {
	tr := trace.New(3)
	tr.KindName = func(k uint8) string { return protocol.MsgKindName(network.Kind(k)) }
	fig1Default(iters, tr)
	return tr
}

// fig1Default measures steady-state messages per transfer when a
// producer rewrites and a consumer rereads one block through the
// default protocol (home on a third node). tr, when non-nil, records
// the run's causal trace.
func fig1Default(iters int, tr *trace.Tracer) float64 {
	mc := config.Default().WithNodes(3)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", 4*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	protocol.Attach(c)
	if tr != nil {
		tr.Heat.AddArray("x", base/mc.BlockSize, 4*mc.PageSize/mc.BlockSize)
		c.SetTracer(tr)
	}
	addr := base + 2*mc.PageSize // homed at node 2

	c.Env.Spawn("producer", func(p *sim.Proc) {
		n := c.Nodes[0]
		for i := 0; i < iters; i++ {
			n.StoreF64(p, addr, float64(i))
			c.Barrier(p, n)
			c.Barrier(p, n)
		}
	})
	c.Env.Spawn("consumer", func(p *sim.Proc) {
		n := c.Nodes[1]
		for i := 0; i < iters; i++ {
			c.Barrier(p, n)
			n.LoadF64(p, addr)
			c.Barrier(p, n)
		}
	})
	c.Env.Spawn("home", func(p *sim.Proc) {
		n := c.Nodes[2]
		for i := 0; i < 2*iters; i++ {
			c.Barrier(p, n)
		}
	})
	if err := c.Env.Run(); err != nil {
		panic(err)
	}
	barrierMsgs := int64(2*iters) * 4 // 3-node barrier: 2 arrive + 2 release
	return float64(c.Stats.TotalMessages()-barrierMsgs) / float64(iters)
}

// fig1CC measures the same transfer under compiler control in steady
// state (frames set up once, then one tagged message per iteration).
func fig1CC(iters int) float64 {
	mc := config.Default().WithNodes(3)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", 4*mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	pr := protocol.Attach(c)
	addr := base + 2*mc.PageSize
	run := []protocol.BlockRun{{Start: addr / mc.BlockSize, N: 1}}

	var afterSetup int64
	c.Env.Spawn("producer", func(p *sim.Proc) {
		n := c.Nodes[0]
		x := pr.Node(0)
		x.MkWritable(p, run)
		c.Barrier(p, n)
		c.Barrier(p, n)
		afterSetup = c.Stats.TotalMessages()
		for i := 0; i < iters; i++ {
			n.StoreF64(p, addr, float64(i))
			x.SendBlocks(p, 1, run, protocol.SendBulk)
			c.Barrier(p, n)
		}
	})
	c.Env.Spawn("consumer", func(p *sim.Proc) {
		n := c.Nodes[1]
		x := pr.Node(1)
		c.Barrier(p, n)
		x.ImplicitWritable(p, run, true)
		c.Barrier(p, n)
		for i := 0; i < iters; i++ {
			x.ExpectBlocks(1)
			x.ReadyToRecv(p)
			n.Mem.ReadF64(addr)
			c.Barrier(p, n)
		}
	})
	c.Env.Spawn("home", func(p *sim.Proc) {
		n := c.Nodes[2]
		for i := 0; i < 2+iters; i++ {
			c.Barrier(p, n)
		}
	})
	if err := c.Env.Run(); err != nil {
		panic(err)
	}
	barrierMsgs := int64(iters) * 4
	return float64(c.Stats.TotalMessages()-afterSetup-barrierMsgs) / float64(iters)
}

// Table1 prints the simulated cluster configuration alongside the
// measured short-message round trip and read-miss time.
func Table1() string {
	mc := config.Default()
	var b strings.Builder
	b.WriteString("Table 1: cluster configuration\n\n")
	fmt.Fprintf(&b, "  %-55s %v\n", "Processors per node (compute + protocol)", "2 (dual-cpu mode)")
	fmt.Fprintf(&b, "  %-55s %d\n", "Nodes", mc.Nodes)
	fmt.Fprintf(&b, "  %-55s %d bytes\n", "Coherence block", mc.BlockSize)
	rt := 2 * (mc.SendOver + mc.MsgTime(4) + mc.RecvOver)
	fmt.Fprintf(&b, "  %-55s %.1f us (paper: 40)\n", "Min roundtrip latency, 4-byte message", us(rt))
	fmt.Fprintf(&b, "  %-55s %.0f MB/s (paper: 20)\n", "Network bandwidth", 1000.0/float64(mc.NsPerByte))
	fmt.Fprintf(&b, "  %-55s %.1f us (paper: 93)\n", "Read-miss time, 128-byte block (2 cpu), measured", us(MeasureReadMiss()))
	return b.String()
}

// MeasureReadMiss runs the Table 1 read-miss microbenchmark: a remote
// read of a 128-byte block whose data is in home memory, on a warm
// page.
func MeasureReadMiss() sim.Time {
	mc := config.Default().WithNodes(2)
	sp := memory.NewSpace(mc)
	base := sp.Alloc("x", mc.PageSize)
	c := tempest.NewCluster(sim.NewEnv(), sp)
	protocol.Attach(c)
	var stall sim.Time
	c.Env.Spawn("reader", func(p *sim.Proc) {
		c.Nodes[1].LoadF64(p, base) // warm the page mapping
		t0 := p.Now()
		c.Nodes[1].LoadF64(p, base+int(mc.BlockSize))
		stall = p.Now() - t0
	})
	if err := c.Env.Run(); err != nil {
		panic(err)
	}
	return stall
}

// Table2 prints the application suite with measured memory footprints.
func Table2(sizing Sizing) string {
	var b strings.Builder
	b.WriteString("Table 2: application suite\n\n")
	fmt.Fprintf(&b, "  %-9s %-45s %12s %10s\n", "App", "Problem size (paper)", "Paper MB", "Run MB")
	for _, a := range apps.All() {
		fmt.Fprintf(&b, "  %-9s %-45s %12.1f %10.1f\n",
			a.Name, a.PaperProblem, a.PaperMemMB, a.MemMB(ParamsFor(a, sizing)))
	}
	b.WriteString("\n  (shallow/pde used 32-bit reals in 1997; this build uses float64)\n")
	return b.String()
}

// Fig3 prints the speedup chart data: speedup over the uniprocessor
// run for each configuration.
func Fig3(s *SuiteResults) string {
	var b strings.Builder
	b.WriteString("Figure 3: speedups on 8 nodes (relative to 1-node run)\n\n")
	cols := []string{"unopt-single", "unopt-dual", "opt-single", "opt-dual", "mp"}
	fmt.Fprintf(&b, "  %-9s", "App")
	for _, c := range cols {
		fmt.Fprintf(&b, " %13s", c)
	}
	b.WriteString("\n")
	for _, name := range AppNames() {
		uni := float64(s.Get(name, "uni").Elapsed)
		fmt.Fprintf(&b, "  %-9s", name)
		for _, c := range cols {
			fmt.Fprintf(&b, " %12.2fx", uni/float64(s.Get(name, c).Elapsed))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table3 prints the timing breakdown and miss counts: compute time,
// unoptimized communication time (dual and single CPU) with the
// percentage reduction achieved by the optimizations, and per-node
// miss counts with their reduction.
func Table3(s *SuiteResults) string {
	var b strings.Builder
	b.WriteString("Table 3: reduction in miss count and communication time\n\n")
	fmt.Fprintf(&b, "  %-9s %9s | %10s %7s | %10s %7s | %9s %7s\n",
		"App", "Compute", "Comm dual", "%red", "Comm 1cpu", "%red", "Miss/node", "%red")
	for _, name := range AppNames() {
		ud := s.Get(name, "unopt-dual")
		us1 := s.Get(name, "unopt-single")
		od := s.Get(name, "opt-dual")
		os1 := s.Get(name, "opt-single")
		commUD, commOD := ud.Stats.AvgCommTime(), od.Stats.AvgCommTime()
		commUS, commOS := us1.Stats.AvgCommTime(), os1.Stats.AvgCommTime()
		missU, missO := ud.Stats.AvgMissesPerNode(), od.Stats.AvgMissesPerNode()
		fmt.Fprintf(&b, "  %-9s %7.1fms | %8.1fms %6.1f%% | %8.1fms %6.1f%% | %9.1f %6.1f%%\n",
			name, ms(ud.Stats.AvgComputeTime()),
			ms(commUD), pctRed(commUD, commOD),
			ms(commUS), pctRed(commUS, commOS),
			missU, 100*(1-missO/missU))
	}
	return b.String()
}

// Fig4 prints the ablation of Figure 4: percentage reduction in total
// execution time relative to the unoptimized run, for base
// optimizations, +bulk transfer, and +run-time overhead elimination
// (dual-CPU).
func Fig4(s *SuiteResults) string {
	var b strings.Builder
	b.WriteString("Figure 4: benefits of bulk transfer and run-time overhead elimination\n")
	b.WriteString("(percent reduction in execution time vs unoptimized, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s %10s %10s %10s\n", "App", "base", "+bulk", "+rtelim")
	for _, name := range AppNames() {
		u := float64(s.Get(name, "unopt-dual").Elapsed)
		row := func(key string) float64 { return 100 * (1 - float64(s.Get(name, key).Elapsed)/u) }
		fmt.Fprintf(&b, "  %-9s %9.1f%% %9.1f%% %9.1f%%\n",
			name, row("base-dual"), row("bulk-dual"), row("opt-dual"))
	}
	return b.String()
}

// PRE prints the redundant-communication-elimination extension's
// effect (Section 4.3 / future work in the paper).
func PRE(s *SuiteResults) string {
	var b strings.Builder
	b.WriteString("PRE extension: redundant communication elimination (vs rtelim, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s %12s %12s %10s %12s %12s\n", "App", "rtelim", "pre", "time red", "msgs rtelim", "msgs pre")
	for _, name := range AppNames() {
		rte := s.Get(name, "opt-dual")
		pre := s.Get(name, "pre-dual")
		fmt.Fprintf(&b, "  %-9s %10.2fms %10.2fms %9.1f%% %12d %12d\n",
			name, ms(rte.Elapsed), ms(pre.Elapsed),
			100*(1-float64(pre.Elapsed)/float64(rte.Elapsed)),
			rte.Stats.TotalMessages(), pre.Stats.TotalMessages())
	}
	return b.String()
}

// Network sweeps interconnect bandwidth, a what-if the paper's
// conclusion motivates ("most emerging commercial parallel systems
// will provide fine-grain shared memory"): as the network speeds up,
// the unoptimized protocol's software overheads dominate and the
// compiler-directed transfers' advantage narrows but persists.
func Network(sizing Sizing) (string, error) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		return "", err
	}
	params := ParamsFor(a, sizing)
	var b strings.Builder
	b.WriteString("Ablation: network bandwidth (jacobi, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-10s | %12s %12s | %10s\n", "Bandwidth", "unopt", "rtelim", "opt gain")
	for _, nsPerByte := range []int64{50, 12, 3} { // 20, ~83, ~333 MB/s
		mc := config.Default()
		mc.NsPerByte = nsPerByte
		var res [2]*runtime.Result
		for i, opt := range []compiler.Level{compiler.OptNone, compiler.OptRTElim} {
			prog, err := a.Program(params)
			if err != nil {
				return "", err
			}
			r, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: opt})
			if err != nil {
				return "", err
			}
			res[i] = r
		}
		fmt.Fprintf(&b, "  %7.0fMB/s | %10.2fms %10.2fms | %9.1f%%\n",
			1000.0/float64(nsPerByte), ms(res[0].Elapsed), ms(res[1].Elapsed),
			100*(1-float64(res[1].Elapsed)/float64(res[0].Elapsed)))
	}
	return b.String(), nil
}

// Irregular demonstrates the paper's conclusion: a program mixing
// affine and indirect subscripts runs (and benefits from the
// optimizations on its affine part) on shared memory, while the
// message-passing backend must reject it.
func Irregular(sizing Sizing) (string, error) {
	a := apps.Irregular()
	params := ParamsFor(a, sizing)
	var b strings.Builder
	b.WriteString("Extension: affine + indirect subscripts (paper section 7 future work)\n\n")
	for _, v := range []struct {
		name string
		opt  compiler.Level
	}{{"unoptimized", compiler.OptNone}, {"optimized (affine part)", compiler.OptRTElim}} {
		prog, err := a.Program(params)
		if err != nil {
			return "", err
		}
		r, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: v.opt})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  shared memory, %-24s : %8.2f ms, %6.1f misses/node\n",
			v.name, ms(r.Elapsed), r.Stats.AvgMissesPerNode())
	}
	prog, err := a.Program(params)
	if err != nil {
		return "", err
	}
	r, err := runtime.Run(prog, runtime.Options{
		Machine: config.Default(), Opt: compiler.OptRTElim, InspectIndirect: true,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  shared memory, + indirect inspector    : %8.2f ms, %6.1f misses/node\n",
		ms(r.Elapsed), r.Stats.AvgMissesPerNode())
	prog2, err := a.Program(params)
	if err != nil {
		return "", err
	}
	if _, err := runtime.Run(prog2, runtime.Options{Machine: config.Default(), Backend: runtime.MessagePassing}); err != nil {
		fmt.Fprintf(&b, "  message passing                         : rejected (%v)\n", err)
	} else {
		return "", fmt.Errorf("message-passing backend unexpectedly accepted an irregular program")
	}
	return b.String(), nil
}

// Distribution sweeps lu's column distribution: BLOCK concentrates the
// trailing submatrix on the last processors (poor balance), CYCLIC
// deals columns for balance (the configuration the paper's lu uses),
// CYCLIC(4) trades balance against fewer, larger transfers.
func Distribution(sizing Sizing) (string, error) {
	a, err := apps.ByName("lu")
	if err != nil {
		return "", err
	}
	params := ParamsFor(a, sizing)
	var b strings.Builder
	b.WriteString("Ablation: lu column distribution (rtelim, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-12s | %12s %14s %12s\n", "Distribution", "elapsed", "max/min work", "misses/node")
	for _, dist := range []string{"BLOCK", "CYCLIC", "CYCLIC(4)"} {
		src := strings.Replace(a.Source, "DISTRIBUTE a(*, CYCLIC)", "DISTRIBUTE a(*, "+dist+")", 1)
		prog, err := lang.ParseWithOverrides(src, params)
		if err != nil {
			return "", err
		}
		r, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim})
		if err != nil {
			return "", err
		}
		// Work balance: max/min per-node compute time.
		minC, maxC := r.Stats.Nodes[0].ComputeTime, r.Stats.Nodes[0].ComputeTime
		for _, n := range r.Stats.Nodes {
			if n.ComputeTime < minC {
				minC = n.ComputeTime
			}
			if n.ComputeTime > maxC {
				maxC = n.ComputeTime
			}
		}
		ratio := float64(maxC) / float64(max(minC, 1))
		fmt.Fprintf(&b, "  %-12s | %10.2fms %13.1fx %12.1f\n",
			dist, ms(r.Elapsed), ratio, r.Stats.AvgMissesPerNode())
	}
	return b.String(), nil
}

// Consistency compares the paper's eager release-consistent default
// protocol against a conservative sequentially-consistent variant
// (blocking writes) — the design choice motivated by the paper's
// footnote 1, and a demonstration of Tempest's user-swappable
// protocols.
func Consistency(sizing Sizing) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation: release consistency vs blocking writes (unoptimized, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s | %12s %12s | %10s\n", "App", "release", "sequential", "RC saves")
	for _, name := range []string{"jacobi", "shallow", "lu"} {
		a, err := apps.ByName(name)
		if err != nil {
			return "", err
		}
		params := ParamsFor(a, sizing)
		var res [2]*runtime.Result
		for i, cons := range []config.Consistency{config.ReleaseConsistent, config.SequentiallyConsistent} {
			prog, err := a.Program(params)
			if err != nil {
				return "", err
			}
			r, err := runtime.Run(prog, runtime.Options{
				Machine: config.Default().WithConsistency(cons), Opt: compiler.OptNone,
			})
			if err != nil {
				return "", err
			}
			res[i] = r
		}
		fmt.Fprintf(&b, "  %-9s | %10.2fms %10.2fms | %9.1f%%\n",
			name, ms(res[0].Elapsed), ms(res[1].Elapsed),
			100*(1-float64(res[0].Elapsed)/float64(res[1].Elapsed)))
	}
	return b.String(), nil
}

// Prefetch is the advisory edge-prefetch ablation: the paper suggests
// self-invalidate / co-operative prefetch for the boundary elements
// shmem_limits leaves to the default protocol, "a worthwhile
// optimization where the data set size is small" (grav's case).
func Prefetch(sizing Sizing) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation: advisory edge prefetch (rtelim, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s | %12s %12s | %10s %10s\n", "App", "no prefetch", "prefetch", "misses", "misses-pf")
	for _, name := range []string{"grav", "shallow", "jacobi"} {
		a, err := apps.ByName(name)
		if err != nil {
			return "", err
		}
		params := ParamsFor(a, sizing)
		var res [2]*runtime.Result
		for i, pf := range []bool{false, true} {
			prog, err := a.Program(params)
			if err != nil {
				return "", err
			}
			r, err := runtime.Run(prog, runtime.Options{
				Machine: config.Default(), Opt: compiler.OptRTElim, EdgePrefetch: pf,
			})
			if err != nil {
				return "", err
			}
			res[i] = r
		}
		fmt.Fprintf(&b, "  %-9s | %10.2fms %10.2fms | %10d %10d\n",
			name, ms(res[0].Elapsed), ms(res[1].Elapsed),
			res[0].Stats.TotalMisses(), res[1].Stats.TotalMisses())
	}
	return b.String(), nil
}

// BlockSize is the block-size ablation: the paper's system supports
// 32-128 byte blocks; smaller blocks reduce false sharing and edge
// effects but multiply per-block overheads.
func BlockSize(sizing Sizing) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation: coherence block size (jacobi + grav, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s %6s | %12s %12s | %9s\n", "App", "Block", "unopt", "rtelim", "miss red")
	names := []string{"jacobi", "grav"}
	sizes := []int{32, 64, 128}
	type cell struct{ un, op *runtime.Result }
	cells := make([]cell, len(names)*len(sizes))
	err := forEachLimit(len(cells), SuiteWorkers, func(i int) error {
		name, bs := names[i/len(sizes)], sizes[i%len(sizes)]
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		prog, err := a.Program(ParamsFor(a, sizing))
		if err != nil {
			return err
		}
		mc := config.Default().WithBlockSize(bs)
		un, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: compiler.OptNone})
		if err != nil {
			return err
		}
		op, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: compiler.OptRTElim})
		if err != nil {
			return err
		}
		cells[i] = cell{un, op}
		return nil
	})
	if err != nil {
		return "", err
	}
	for i, c := range cells {
		fmt.Fprintf(&b, "  %-9s %5dB | %10.2fms %10.2fms | %8.1f%%\n",
			names[i/len(sizes)], sizes[i%len(sizes)], ms(c.un.Elapsed), ms(c.op.Elapsed),
			100*(1-c.op.Stats.AvgMissesPerNode()/c.un.Stats.AvgMissesPerNode()))
	}
	return b.String(), nil
}

// Agg sweeps the barrier-epoch aggregation layer's adaptive bulk
// threshold against the coherence block size, over all six
// applications (rtelim, dual-cpu). The first column of each block row
// is the layer switched off entirely; thresholds are expressed in
// coherence blocks, since the policy compares the per-(loop,
// destination) expected bytes against them. The grid is walked in
// deterministic order — apps in suite order, block sizes then
// thresholds ascending — so two sweeps diff cleanly.
func Agg(sizing Sizing) (string, error) {
	var b strings.Builder
	b.WriteString("Ablation: barrier-epoch aggregation threshold x block size (rtelim, dual-cpu)\n\n")
	fmt.Fprintf(&b, "  %-9s %6s %10s | %12s %8s %9s %8s %9s\n",
		"App", "Block", "Threshold", "elapsed", "msgs", "bytes", "segs", "carriers")
	names := AppNames()
	sizes := []int{64, 128}
	thresholds := []int{-1, 2, 32, 256} // in blocks; -1 = aggregation off
	results := make([]*runtime.Result, len(names)*len(sizes)*len(thresholds))
	err := forEachLimit(len(results), SuiteWorkers, func(i int) error {
		name := names[i/(len(sizes)*len(thresholds))]
		bs := sizes[i/len(thresholds)%len(sizes)]
		thr := thresholds[i%len(thresholds)]
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		prog, err := a.Program(ParamsFor(a, sizing))
		if err != nil {
			return err
		}
		mc := config.Default().WithBlockSize(bs)
		if thr < 0 {
			mc = mc.WithoutCoalesce()
		} else {
			mc.AggThreshold = thr * bs
		}
		r, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: compiler.OptRTElim})
		if err != nil {
			return fmt.Errorf("%s block=%d threshold=%d: %w", name, bs, thr, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return "", err
	}
	for i, r := range results {
		name := names[i/(len(sizes)*len(thresholds))]
		bs := sizes[i/len(thresholds)%len(sizes)]
		thr := thresholds[i%len(thresholds)]
		label := "off"
		if thr >= 0 {
			label = fmt.Sprintf("%d blk", thr)
		}
		fmt.Fprintf(&b, "  %-9s %5dB %10s | %10.2fms %8d %9d %8d %9d\n",
			name, bs, label, ms(r.Elapsed), r.Stats.TotalMessages(), r.Stats.TotalBytes(),
			r.Stats.TotalSegsCoalesced(), r.Stats.TotalCarriersSent())
	}
	return b.String(), nil
}

func pctRed(before, after sim.Time) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (1 - float64(after)/float64(before))
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// Faults runs representative applications (regular stencil,
// broadcast-heavy factorization, reduction-heavy solver) over an
// increasingly unreliable wire and reports what reliable delivery
// costs: retransmission volume and the slowdown against the lossless
// run. The barrier-instant coherence audit is armed throughout, so
// every row is also a correctness statement.
func Faults(sizing Sizing) (string, error) {
	var b strings.Builder
	b.WriteString("Robustness: fault injection + reliable delivery (rtelim, dual-cpu, audited)\n\n")
	fmt.Fprintf(&b, "  %-8s %-12s | %10s %8s %11s %8s %11s | %8s\n",
		"app", "faults", "elapsed", "msgs", "retransmit", "drops", "dedup-drop", "slowdown")
	levels := []struct {
		name      string
		drop, dup float64
	}{
		{"lossless", 0, 0},
		{"1%+0.5%", 0.01, 0.005},
		{"5%+2%", 0.05, 0.02},
	}
	names := []string{"jacobi", "lu", "cg"}
	results := make([]*runtime.Result, len(names)*len(levels))
	err := forEachLimit(len(results), SuiteWorkers, func(i int) error {
		name, lv := names[i/len(levels)], levels[i%len(levels)]
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		prog, err := a.Program(ParamsFor(a, sizing))
		if err != nil {
			return err
		}
		mc := config.Default()
		if lv.drop > 0 {
			mc = mc.WithFaults(config.Faults{Drop: lv.drop, Dup: lv.dup, Seed: 1})
		}
		r, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: compiler.OptRTElim, Check: true})
		if err != nil {
			return fmt.Errorf("%s at %s: %w", name, lv.name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return "", err
	}
	for i, r := range results {
		name, lv := names[i/len(levels)], levels[i%len(levels)]
		base := results[i-i%len(levels)].Elapsed // the app's lossless run
		fmt.Fprintf(&b, "  %-8s %-12s | %8.2fms %8d %11d %8d %11d | %7.2fx\n",
			name, lv.name, ms(r.Elapsed), r.Stats.TotalMessages(),
			r.Stats.TotalRetransmits(), r.Stats.TotalWireDrops(), r.Stats.TotalDupsDropped(),
			float64(r.Elapsed)/float64(base))
	}
	return b.String(), nil
}
