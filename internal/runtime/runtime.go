// Package runtime executes compiled data-parallel programs on the
// simulated fine-grain DSM cluster. It is the shared-memory back end:
// every array lives in the coherent global segment, loads and stores go
// through fine-grain access checks, and — at optimization levels above
// OptNone — the runtime brackets each parallel loop with the
// compiler-directed protocol calls of the paper's Figure 2.
package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// Options configures one run.
type Options struct {
	Machine config.Machine
	Opt     compiler.Level
	Backend Backend
	// Profile enables per-loop time/miss profiling (Result.Profile).
	Profile bool
	// EdgePrefetch issues advisory prefetches for the boundary blocks
	// the block-alignment shrink leaves to the default protocol (the
	// paper's suggested extension for small data sets such as grav).
	EdgePrefetch bool
	// InspectIndirect runs a light-weight inspector before loops with
	// indirect references: it scans the node's own iterations
	// evaluating just the indirect subscripts and prefetches the
	// scattered target blocks, overlapping their fetch latency with
	// the loop's setup — the inspector/executor idea applied to the
	// paper's future-work benchmark class.
	InspectIndirect bool
	// Check audits the coherence invariants (directory state, block
	// tags, data agreement) at every barrier and reduction instant, in
	// addition to the always-on post-run quiescent audit. Shared-memory
	// backend only.
	Check bool
	// Verified is the static verifier's report from an hpfrun -verify
	// pre-flight (may be nil). When set, invariant-audit diagnostics
	// cite the contract rules the verifier proved for the loop whose
	// schedule governs the failing block.
	Verified *analysis.Report
	// Trace, when non-nil, records the run's causal protocol-event
	// trace: wire spans and flow links, handler executions, miss
	// stalls, loop/barrier regions, and the per-block heat map. The
	// runtime installs the kind-name and block-provenance hooks and
	// registers every array's block range before the simulation starts.
	Trace *trace.Tracer
	// Checkpoint enables barrier-consistent checkpoint capture even
	// when no crashes are configured (for measuring the overhead with
	// the machinery compiled in); configuring crash injection enables
	// it implicitly. Shared-memory backend only.
	Checkpoint bool
	// CkptDir, when non-empty, persists the latest checkpoint blob to
	// <dir>/<program>.ckpt after each capture — a diagnostic artifact;
	// recovery restores from the in-memory copy.
	CkptDir string
	// Partitions > 1 splits the nodes across that many partition Envs
	// under conservative PDES: one goroutine runs the partitions'
	// windows in turn, each bounded by a horizon derived from the
	// minimum cross-partition message latency (see sim.Shards).
	// Statistics are bit-identical to the sequential event loop. 0 or 1
	// selects the sequential loop; values above the node count are
	// clamped. The modes it cannot partition are refused (see
	// refusals).
	Partitions int
}

// Result is the outcome of one simulated run.
type Result struct {
	Prog    *ir.Program
	Stats   *stats.Cluster
	Elapsed sim.Time           // simulated execution time
	Scalars map[string]float64 // node 0's final scalar values
	Profile *trace.Profile     // per-loop profile (nil unless requested)
	// BarrierChecks is how many barrier-instant coherence audits ran
	// (zero unless Options.Check), summed across recovery attempts.
	BarrierChecks int64

	// Crash-recovery outcome (all zero unless crash injection or
	// Options.Checkpoint was active).
	Recoveries       int64    // detected crashes, each an aborted attempt restarted from a checkpoint
	RecoveryTime     sim.Time // simulated time modeled for restore pauses
	CheckpointsTaken int64    // quiescent captures (incl. the initial state)
	CheckpointBytes  int64    // total encoded bytes across captures

	// PDESWindows is the window executions summed over partitions
	// (zero unless Options.Partitions > 1). PDESHandoffs is always
	// zero: the engine runs every window on one goroutine and hands
	// nothing off; the field stays for readers of the old census.
	PDESWindows  uint64
	PDESHandoffs uint64

	cluster  *tempest.Cluster
	analysis *compiler.Analysis
	plans    *compiler.Planner // the final attempt's per-instance plans
	layouts  map[*ir.Array]sections.Layout
	proto    *protocol.Proto
	mp       bool
}

// Analysis exposes the compiled communication rules (for inspection
// tools and tests).
func (r *Result) Analysis() *compiler.Analysis { return r.analysis }

// ReduceJournal returns every completed reduction's combined value in
// completion order. Reductions are where a topology change could leak
// into the computation (a different combination order shifts low
// mantissa bits), so the journal is the sim-visible witness that the
// combining tree reproduces the flat master's canonical ascending fold
// bit-for-bit.
func (r *Result) ReduceJournal() []float64 { return r.cluster.ReduceJournal }

// ArrayData assembles an array's final contents (in address order,
// i.e. column-major flattened). On the shared-memory backend each word
// is read coherently through the directory; on the message-passing
// backend the owner's private copy is authoritative.
func (r *Result) ArrayData(name string) []float64 {
	arr := r.Prog.ArrayByName(name)
	if arr == nil {
		panic(fmt.Sprintf("runtime: no array %q", name))
	}
	lay := r.layouts[arr]
	d := r.analysis.Dist(arr)
	out := make([]float64, arr.Elems())
	colElems := arr.Elems() / arr.LastExtent()
	for j := 1; j <= arr.LastExtent(); j++ {
		base := lay.Base + (j-1)*colElems*8
		if r.mp {
			owner := r.cluster.Nodes[d.Owner(j)]
			for k := 0; k < colElems; k++ {
				out[(j-1)*colElems+k] = owner.Mem.ReadF64(base + 8*k)
			}
			continue
		}
		for k := 0; k < colElems; k++ {
			out[(j-1)*colElems+k] = r.proto.CoherentRead(base + 8*k)
		}
	}
	return out
}

// crashError aborts a simulation attempt the moment the failure
// detector declares a node dead; the recovery loop in Run catches it
// and restarts the machine from the last barrier-consistent checkpoint.
type crashError struct {
	node   int
	reason string
	at     sim.Time
}

func (e *crashError) Error() string {
	return fmt.Sprintf("node %d declared dead at t=%v: %s", e.node, e.at, e.reason)
}

// fault is an error in the program being run rather than in the
// simulator: a subscript out of range, a scalar read before any
// assignment, a symbol no enclosing loop binds. The executor raises it
// as a panic value from wherever it is detected; exec.run recovers it,
// adds the statement and the node, and aborts the attempt with it.
type fault struct {
	msg  string
	node int
	stmt string
}

func (f *fault) Error() string {
	return fmt.Sprintf("node %d, %s: %s", f.node, f.stmt, f.msg)
}

func faultf(format string, args ...any) *fault {
	return &fault{msg: fmt.Sprintf(format, args...)}
}

// recovery carries the crash/checkpoint state that survives across
// simulation attempts: the injection plan (fired flags persist so a
// crash is injected exactly once per run), the latest encoded
// checkpoint, and the accumulated recovery accounting.
type recovery struct {
	enabled bool
	specs   []config.CrashSpec
	fired   []bool
	blob    []byte // latest complete checkpoint, encoded; its buffer serves the whole Run
	dir     string
	prog    string

	taken, bytes int64
	detected     int64
	lostTime     sim.Time
	err          error // the first failed write to dir
}

// keepHook, when set, sees every blob keep installs, at the instant it
// is installed. It is a test seam (export_test.go); nil otherwise.
var keepHook func(blob []byte)

// keep captures a checkpoint of proto over the recovery point, in the
// same buffer, and persists it to dir when one is set (a diagnostic
// artifact that recovery never reads back).
//
// One buffer serves every capture of the Run, across attempts: a
// capture runs to its end at one barrier instant, before anything can
// read the recovery point again, and a restore reads the point through
// checkpoint.Decode, which copies out of it. The buffer grows only when
// a blob does not fit, to twice its size (checkpoint.Append). A second
// buffer would have to grow past the largest blob too, so two would
// allocate at least the initial state's blob plus twice the largest.
func (rec *recovery) keep(proto *protocol.Proto) {
	blob := proto.Checkpoint(rec.blob[:0])
	if keepHook != nil {
		keepHook(blob)
	}
	rec.blob = blob
	rec.taken++
	rec.bytes += int64(len(blob))
	if rec.dir != "" && rec.err == nil {
		if err := os.WriteFile(filepath.Join(rec.dir, rec.prog+".ckpt"), blob, 0o644); err != nil {
			rec.err = fmt.Errorf("runtime: checkpoint: %w (program %s)", err, rec.prog)
		}
	}
}

// refusals are the configurations Run will not simulate, in checking
// order; a format sees the program's name, the partition count and
// MsgTime(0) as arguments 1, 2 and 3. pdes refuses every mode whose
// machinery is not partitioned rather than silently diverge.
var refusals = []struct {
	when   func(*ir.Program, *Options) bool
	format string
}{
	{func(p *ir.Program, o *Options) bool { return o.Backend == MessagePassing && ir.HasIndirect(p) }, "runtime: program %[1]s contains indirect array subscripts and is not amenable to message passing; use the shared-memory backend"},
	{func(_ *ir.Program, o *Options) bool {
		return o.Backend == MessagePassing && len(o.Machine.Faults.Crashes) > 0
	}, "runtime: crash injection requires the shared-memory backend (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.Machine.Faults.Active() }, "runtime: pdes (Partitions=%[2]d) is incompatible with fault injection — the reliable-delivery timers and crash recovery are not partitioned; rerun with Partitions=1 (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.checkpointing() }, "runtime: pdes (Partitions=%[2]d) is incompatible with checkpointing — partitions run window by window, so the quiescence predicate at one node's barrier instant sees the other partitions up to a window away; rerun with Partitions=1 (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.Check }, "runtime: pdes (Partitions=%[2]d) is incompatible with barrier-instant coherence checks — partitions run window by window, so an audit at one node's barrier instant sees the other partitions up to a window away; rerun with Partitions=1 (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.Trace != nil }, "runtime: pdes (Partitions=%[2]d) is incompatible with tracing — partitions run window by window, so events reach the tracer out of time order; rerun with Partitions=1 (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.Profile }, "runtime: pdes (Partitions=%[2]d) is incompatible with per-loop profiling — partitions run window by window, so loop regions reach the profile out of time order; rerun with Partitions=1 (program %[1]s)"},
	{func(_ *ir.Program, o *Options) bool { return o.Partitions > 1 && o.Machine.MsgTime(0) <= 0 }, "runtime: pdes needs a positive minimum message latency for its lookahead window; this machine has MsgTime(0)=%[3]d (program %[1]s)"},
}

// checkpointing reports whether the run captures checkpoints without a
// crash to recover from: asked for outright, or implied by a directory
// to persist them in.
func (o *Options) checkpointing() bool { return o.Checkpoint || o.CkptDir != "" }

// Refusal is Run's error for prog under o (Partitions clamped), or nil.
func Refusal(prog *ir.Program, o Options) error {
	for _, r := range refusals {
		if r.when(prog, &o) {
			return fmt.Errorf(r.format, prog.Name, o.Partitions, o.Machine.MsgTime(0))
		}
	}
	return nil
}

// Run executes prog on a simulated cluster. With crash injection (or
// Options.Checkpoint) active, the protocol state is snapshotted at
// every quiescent synchronization epoch; a detected crash-stop failure
// aborts the attempt, and the run restarts on a fresh cluster restored
// from the last checkpoint — survivors roll back, a replacement node
// adopts the victim's state, and the executors ghost-walk the program
// back to the checkpoint epoch before going live.
func Run(prog *ir.Program, opt Options) (*Result, error) {
	mc := opt.Machine
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	opt.Partitions = min(opt.Partitions, mc.Nodes)
	if err := Refusal(prog, opt); err != nil {
		return nil, err
	}
	rec := &recovery{
		enabled: opt.Backend == SharedMemory && (opt.checkpointing() || len(mc.Faults.Crashes) > 0),
		specs:   mc.Faults.Crashes,
		fired:   make([]bool, len(mc.Faults.Crashes)),
		dir:     opt.CkptDir,
		prog:    prog.Name,
	}
	if rec.enabled && rec.dir != "" {
		if err := os.MkdirAll(rec.dir, 0o755); err != nil {
			return nil, fmt.Errorf("runtime: checkpoint directory %s: %w (program %s)", rec.dir, err, prog.Name)
		}
	}
	sp, layouts := compiler.Place(prog, mc)
	// Compiled before there is a machine: a program the executor cannot
	// run is refused without simulating anything.
	code, err := compileProgram(prog, layouts, opt.Backend == MessagePassing)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
	}
	an, err := compiler.Cached(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		return nil, err
	}
	// Block-level provenance for audit diagnostics: schedules are
	// recorded as execs instantiate them, in every attempt; the hook
	// stays cheap (a map lookup) and is only consulted when an audit
	// fails.
	prov := analysis.NewProvIndex(an)
	prov.Report = opt.Verified
	if tr := opt.Trace; tr != nil {
		tr.BlockInfo = prov.Describe
		for _, arr := range prog.Arrays {
			blocks := layouts[arr].Blocks(mc.BlockSize)
			tr.Heat.AddArray(arr.Name, blocks.Start, blocks.N)
		}
	}
	pr := &prepared{prog: prog, opt: opt, rec: rec, sp: sp, layouts: layouts, code: code, an: an, prov: prov}
	startAt := sim.Time(0)
	for attempt := 0; ; attempt++ {
		res, crash, err := pr.attempt(startAt, attempt)
		if err == nil {
			err = rec.err
		}
		if err != nil {
			return nil, err
		}
		if crash == nil {
			res.BarrierChecks = pr.checks
			res.Recoveries = rec.detected
			res.RecoveryTime = rec.lostTime
			res.CheckpointsTaken = rec.taken
			res.CheckpointBytes = rec.bytes
			return res, nil
		}
		if attempt >= len(rec.specs) {
			// Each configured crash fires once, so aborted attempts can
			// never outnumber the specs; this is a detector bug.
			return nil, fmt.Errorf("runtime: recovery attempt %d aborted but only %d crash(es) were configured (program %s): %v",
				attempt, len(rec.specs), prog.Name, crash)
		}
		rec.detected++
		rec.lostTime += config.DefaultRecoveryDelay
		startAt = crash.at + config.DefaultRecoveryDelay
	}
}

// prepared is what Run builds once and every attempt reads: the
// program's placement, its compiled loop bodies, the communication
// analysis and the provenance index, beside the recovery state.
type prepared struct {
	prog    *ir.Program
	opt     Options
	rec     *recovery
	sp      *memory.Space
	layouts map[*ir.Array]sections.Layout
	code    *compiled
	an      *compiler.Analysis
	prov    *analysis.ProvIndex

	// The barrier-instant coherence audit over every attempt: how many
	// ran and the first failure, which does not stop the attempt.
	checks   int64
	checkErr error
}

// attempt builds what a crash destroys — the cluster, the protocol,
// the executors and the recovery hooks — and runs the program once. A
// crash detection aborts the attempt and is returned separately from
// real errors so the caller can recover.
func (pr *prepared) attempt(startAt sim.Time, attempt int) (*Result, *crashError, error) {
	prog, opt, rec, an, prov := pr.prog, pr.opt, pr.rec, pr.an, pr.prov
	mc := opt.Machine
	cluster := tempest.NewShardedCluster(pr.sp, opt.Partitions, startAt)
	env := cluster.Env
	proto := protocol.Attach(cluster)
	// The NIC-level coalescing scheduler rides on eager release
	// consistency (its buffered legs are exactly the latency-tolerant
	// ones) and only pays off once the compiler emits phased bulk
	// traffic; below OptBulk, and on the message-passing backend, it
	// never engages.
	if opt.Opt >= compiler.OptBulk && opt.Backend == SharedMemory &&
		!mc.NoCoalesce && mc.Consistency == config.ReleaseConsistent {
		proto.EnableAggregation(mc.EffectiveAggDelay())
	}

	res := &Result{
		Prog:     prog,
		Stats:    cluster.Stats,
		Scalars:  map[string]float64{},
		cluster:  cluster,
		analysis: an,
		plans:    compiler.NewPlanner(opt.Opt),
		layouts:  pr.layouts,
		proto:    proto,
		mp:       opt.Backend == MessagePassing,
	}

	execs := make([]*exec, mc.Nodes)
	var prof *trace.Profile
	if opt.Profile {
		prof = trace.NewProfile()
		res.Profile = prof
	}
	proto.BlockInfo = prov.Describe
	if tr := opt.Trace; tr != nil {
		cluster.SetTracer(tr)
	}
	for i := 0; i < mc.Nodes; i++ {
		execs[i] = newExec(prog, an, pr.layouts, pr.code.loops, cluster, cluster.Nodes[i], proto.Node(i), opt.Opt)
		execs[i].m = pr.code.newMach(execs[i])
		execs[i].prof = prof
		execs[i].edgePf = opt.EdgePrefetch
		execs[i].inspect = opt.InspectIndirect
		execs[i].prov = prov
		execs[i].plans = res.plans
	}
	if opt.Backend == MessagePassing {
		installMP(execs)
	}
	// The barrier instant's hooks run in this order: the audit, then the
	// capture, then crash injection (a crash at epoch E must not lose
	// E's checkpoint, which the recovery restores to).
	if opt.Check && opt.Backend == SharedMemory {
		cluster.AtBarrier = append(cluster.AtBarrier, func(int64) {
			pr.checks++
			if err := proto.CheckAtBarrier(); err != nil && pr.checkErr == nil {
				pr.checkErr = fmt.Errorf("coherence check at sync point %d (t=%dns): %w", pr.checks, env.Now(), err)
			}
		})
	}
	horizon := sim.Time(0)
	if mc.Faults.Active() {
		horizon = config.DefaultWatchdogHorizon
	}
	cluster.SetWatchdog(horizon, func() string {
		return watchdogDump(cluster, proto)
	})

	if rec.enabled {
		if attempt == 0 {
			// The initial state is itself a consistent checkpoint: a
			// crash before the first quiescent epoch restarts the whole
			// program (ghosting is disabled for epoch 0).
			rec.keep(proto)
		} else {
			snap, err := checkpoint.Decode(rec.blob)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: corrupt checkpoint: %w (program %s)", err, prog.Name)
			}
			if err := proto.Restore(snap); err != nil {
				return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
			}
			for _, e := range execs {
				e.setResume(snap.Epoch, snap.Journal)
			}
			if tr := opt.Trace; tr != nil {
				tr.Instant(0, trace.LaneCompute, "recovery:restore", "crash", env.Now(),
					trace.I64("epoch", snap.Epoch), trace.Int("attempt", attempt))
			}
		}
		cluster.AtBarrier = append(cluster.AtBarrier, func(int64) {
			if proto.Quiescent() {
				rec.keep(proto)
			}
		})
		// fire injects crash spec i, once per run: a spec spent in an
		// earlier attempt stays spent.
		fire := func(i int, args ...trace.Arg) {
			if rec.fired[i] {
				return
			}
			rec.fired[i] = true
			cluster.Crash(rec.specs[i].Node)
			if tr := opt.Trace; tr != nil {
				tr.Instant(rec.specs[i].Node, trace.LaneCompute, "crash:inject", "crash", env.Now(), args...)
			}
		}
		cluster.AtBarrier = append(cluster.AtBarrier, func(epoch int64) {
			for i, cs := range rec.specs {
				if cs.Epoch > 0 && cs.Epoch == epoch {
					fire(i, trace.I64("epoch", epoch))
				}
			}
		})
		for i, cs := range rec.specs {
			if cs.Epoch > 0 || rec.fired[i] {
				continue
			}
			at := cs.At
			if at < startAt {
				// The scheduled instant fell inside a previous attempt's
				// lost work or the recovery pause; fire immediately.
				at = startAt
			}
			env.Schedule(at, func() { fire(i) })
		}
		if len(rec.specs) > 0 {
			cluster.Net.OnDeath = func(node int, reason string) {
				if tr := opt.Trace; tr != nil {
					tr.Instant(node, trace.LaneCompute, "crash:detected", "crash", env.Now())
				}
				env.Abort(&crashError{node: node, reason: reason, at: env.Now()})
			}
		}
	}

	for i, e := range execs {
		// Each node's compute process lives on the node's own Env — its
		// partition Env under PDES, the single Env otherwise.
		cluster.Nodes[i].Env.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) { e.run(p) })
	}
	err := cluster.Run()
	var ce *crashError
	var fe *fault
	switch {
	case errors.As(err, &ce):
		if pr.checkErr != nil {
			return nil, nil, fmt.Errorf("runtime: %w (program %s)", pr.checkErr, prog.Name)
		}
		// Nothing reads the aborted machine's memory again: give its
		// node images back now rather than at some later collection.
		cluster.Release()
		return nil, ce, nil
	case errors.As(err, &fe):
		// A wrong program, not a stuck machine: the partition dump the
		// window scheduler adds would not explain it.
		err = fe
	}
	if err == nil {
		err = pr.checkErr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
	}
	if opt.Backend == SharedMemory {
		// Every run is self-auditing: the quiescent coherence state must
		// satisfy the protocol invariants.
		if err := proto.CheckInvariants(); err != nil {
			return nil, nil, fmt.Errorf("runtime: post-run invariant violation: %w (program %s)", err, prog.Name)
		}
	}
	res.Elapsed = cluster.Now() - cluster.TimerStart
	res.PDESWindows = cluster.PDESWindows()
	if tr := opt.Trace; tr != nil {
		// Close the record with the simulator's event-dispatch census
		// (always-on counters in sim.Env), visible in the trace viewer.
		ev := env.Events()
		tr.Instant(0, trace.LaneCompute, "sim.events", "meta", env.Now(),
			trace.I64("dispatches", ev.Dispatches), trace.I64("arg_events", ev.ArgEvents),
			trace.I64("fn_events", ev.FnEvents), trace.I64("total", ev.Total()))
	}
	// Map-to-map copy with distinct keys: order-free. The scalars were
	// computed deterministically; only their transfer iterates a map.
	//simlint:commutative
	for k, v := range execs[0].scalars {
		res.Scalars[k] = v
	}
	return res, nil, nil
}

// watchdogDump assembles the stall diagnostic: each node's compute
// process state and outstanding transactions, plus the protocol's
// in-flight work and the reliable-delivery channel state. Runs in
// scheduler context when the sim watchdog trips.
func watchdogDump(cluster *tempest.Cluster, proto *protocol.Proto) string {
	var b strings.Builder
	for _, n := range cluster.Nodes {
		state := "running"
		if p := n.Proc(); p != nil {
			switch {
			case p.Done():
				state = "finished"
			case p.Waiting():
				state = "blocked"
			}
		}
		fmt.Fprintf(&b, "  node %d: compute %s, %d pending transaction(s), %d handler(s) queued, misses r=%d w=%d up=%d, msgs sent=%d recv=%d, retransq=%d",
			n.ID, state, n.Pending(), n.HandlersQueued(), n.St.ReadMisses, n.St.WriteMisses, n.St.UpgradeMisses, n.St.MsgsSent, n.St.MsgsRecv,
			cluster.Net.RetransQueueDepth(n.ID))
		if co := cluster.Net.CoalescerOf(n.ID); co != nil {
			segs, bytes := co.Occupancy()
			fmt.Fprintf(&b, ", coalescer %d seg(s)/%dB buffered", segs, bytes)
		}
		b.WriteByte('\n')
	}
	if d := proto.DumpOutstanding(); d != "" {
		b.WriteString("protocol outstanding work:\n")
		b.WriteString(d)
	}
	if d := cluster.Net.DumpChannels(); d != "" {
		b.WriteString("reliable-delivery channels:\n")
		b.WriteString(d)
	}
	return strings.TrimRight(b.String(), "\n")
}
