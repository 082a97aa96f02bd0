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
	"hpfdsm/internal/network"
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
	// Partitions > 1 runs the simulation itself in parallel:
	// conservative PDES with the nodes split across that many OS
	// threads, advancing in lockstep windows derived from the minimum
	// cross-partition message latency (see sim.Shards). Statistics are
	// bit-identical to the sequential event loop. 0 or 1 selects the
	// sequential loop (zero overhead); values above the node count are
	// clamped. Incompatible with fault injection, checkpointing,
	// barrier-instant checks, tracing and profiling — those are rejected
	// with an error rather than silently diverging.
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
	CrashesDetected  int64    // failure-detector verdicts that aborted an attempt
	Recoveries       int64    // restarts from a checkpoint
	RecoveryTime     sim.Time // simulated time modeled for restore pauses
	CheckpointsTaken int64    // quiescent captures (incl. the initial state)
	CheckpointBytes  int64    // total encoded bytes across captures

	// PDES engine census (zero unless Options.Partitions > 1): window
	// executions summed over partitions, and barrier releases actually
	// paid (inline stretches and single-core inline mode cost none).
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
	blob    []byte // latest complete checkpoint, encoded
	dir     string
	prog    string

	taken, bytes int64
	detected     int64
	lostTime     sim.Time
	checksBefore int64 // BarrierChecks accumulated by aborted attempts
}

// keep installs a freshly captured checkpoint as the recovery point.
func (rec *recovery) keep(blob []byte) {
	rec.blob = blob
	rec.taken++
	rec.bytes += int64(len(blob))
	if rec.dir != "" {
		// Best-effort diagnostic artifact; recovery never reads it back.
		if os.MkdirAll(rec.dir, 0o755) == nil {
			_ = os.WriteFile(filepath.Join(rec.dir, rec.prog+".ckpt"), blob, 0o644)
		}
	}
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
	if opt.Backend == MessagePassing && ir.HasIndirect(prog) {
		return nil, fmt.Errorf("runtime: program %s contains indirect array subscripts and is not amenable to message passing; use the shared-memory backend", prog.Name)
	}
	if opt.Backend == MessagePassing && len(mc.Faults.Crashes) > 0 {
		return nil, fmt.Errorf("runtime: crash injection requires the shared-memory backend (program %s)", prog.Name)
	}
	if opt.Partitions > mc.Nodes {
		opt.Partitions = mc.Nodes
	}
	if opt.Partitions > 1 {
		// Modes whose machinery is inherently cross-partition are
		// rejected loudly: a run that silently diverged from the
		// sequential loop would defeat the bit-identity contract.
		switch {
		case mc.Faults.Active():
			return nil, fmt.Errorf("runtime: pdes (Partitions=%d) is incompatible with fault injection — the reliable-delivery timers and crash recovery are not partitioned; rerun without -pdes (program %s)", opt.Partitions, prog.Name)
		case opt.Checkpoint:
			return nil, fmt.Errorf("runtime: pdes (Partitions=%d) is incompatible with checkpointing — the quiescence predicate needs the single-threaded inflight counter; rerun without -pdes (program %s)", opt.Partitions, prog.Name)
		case opt.Check:
			return nil, fmt.Errorf("runtime: pdes (Partitions=%d) is incompatible with barrier-instant coherence checks — the audit reads every node's state from one thread mid-run; rerun without -pdes (program %s)", opt.Partitions, prog.Name)
		case opt.Trace != nil:
			return nil, fmt.Errorf("runtime: pdes (Partitions=%d) is incompatible with tracing — the tracer's buffers are single-threaded; rerun without -pdes (program %s)", opt.Partitions, prog.Name)
		case opt.Profile:
			return nil, fmt.Errorf("runtime: pdes (Partitions=%d) is incompatible with per-loop profiling — the profile accumulator is single-threaded; rerun without -pdes, or use the observer-only -cpuprofile/-memprofile, which work under -pdes (program %s)", opt.Partitions, prog.Name)
		case mc.MsgTime(0) <= 0:
			return nil, fmt.Errorf("runtime: pdes needs a positive minimum message latency for its lookahead window; this machine has MsgTime(0)=%d (program %s)", mc.MsgTime(0), prog.Name)
		}
	}
	rec := &recovery{
		enabled: opt.Backend == SharedMemory && (opt.Checkpoint || len(mc.Faults.Crashes) > 0),
		specs:   mc.Faults.Crashes,
		fired:   make([]bool, len(mc.Faults.Crashes)),
		dir:     opt.CkptDir,
		prog:    prog.Name,
	}
	startAt := sim.Time(0)
	for attempt := 0; ; attempt++ {
		res, crash, err := runAttempt(prog, opt, rec, startAt, attempt)
		if err != nil {
			return nil, err
		}
		if crash == nil {
			res.CrashesDetected = rec.detected
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
		delay := config.DefaultRecoveryDelay
		rec.detected++
		rec.lostTime += delay
		startAt = crash.at + delay
	}
}

// runAttempt builds a fresh cluster and runs the program once. A crash
// detection aborts the attempt and is returned separately from real
// errors so the caller can recover.
func runAttempt(prog *ir.Program, opt Options, rec *recovery, startAt sim.Time, attempt int) (*Result, *crashError, error) {
	mc := opt.Machine
	sp, layouts := compiler.Place(prog, mc)
	// Compiled before there is a machine: a program the executor cannot
	// run is refused without simulating anything.
	code, err := compileProgram(prog, layouts, opt.Backend == MessagePassing)
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
	}
	var (
		env     *sim.Env
		shards  *sim.Shards
		cluster *tempest.Cluster
	)
	if opt.Partitions > 1 {
		// Conservative PDES: one Env per partition.
		cluster, shards = tempest.NewShardedCluster(sp, opt.Partitions, startAt)
		env = cluster.Env
	} else {
		env = sim.NewEnvAt(startAt)
		cluster = tempest.NewCluster(env, sp)
	}
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
	an, err := compiler.Cached(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		return nil, nil, err
	}

	res := &Result{
		Prog:     prog,
		Stats:    cluster.Stats,
		Scalars:  map[string]float64{},
		cluster:  cluster,
		analysis: an,
		plans:    compiler.NewPlanner(opt.Opt),
		layouts:  layouts,
		proto:    proto,
		mp:       opt.Backend == MessagePassing,
	}

	execs := make([]*exec, mc.Nodes)
	var prof *trace.Profile
	if opt.Profile {
		prof = trace.NewProfile()
		res.Profile = prof
	}
	// Block-level provenance for audit diagnostics: schedules are
	// recorded as execs instantiate them; the hook stays cheap (a map
	// lookup) and is only consulted when an audit fails.
	prov := analysis.NewProvIndex(an)
	prov.Report = opt.Verified
	proto.BlockInfo = prov.Describe
	if tr := opt.Trace; tr != nil {
		tr.KindName = func(k uint8) string { return protocol.MsgKindName(network.Kind(k)) }
		tr.BlockInfo = prov.Describe
		if attempt == 0 {
			// Heat-map array ranges registered once; recovery attempts
			// reuse the same address layout.
			for _, arr := range prog.Arrays {
				blocks := layouts[arr].Blocks(mc.BlockSize)
				tr.Heat.AddArray(arr.Name, blocks.Start, blocks.N)
			}
		}
		cluster.SetTracer(tr)
	}
	for i := 0; i < mc.Nodes; i++ {
		execs[i] = newExec(prog, an, layouts, code.loops, cluster, cluster.Nodes[i], proto.Node(i), opt.Opt)
		execs[i].m = code.newMach(execs[i])
		execs[i].prof = prof
		execs[i].edgePf = opt.EdgePrefetch
		execs[i].inspect = opt.InspectIndirect
		execs[i].prov = prov
		execs[i].plans = res.plans
	}
	if opt.Backend == MessagePassing {
		installMP(execs)
	}
	if opt.Check && opt.Backend == SharedMemory {
		cluster.BarrierCheck = proto.CheckAtBarrier
	}
	if mc.Faults.Active() {
		env.SetWatchdog(config.DefaultWatchdogHorizon, func() string {
			return watchdogDump(cluster, proto)
		})
	}
	if shards != nil {
		// Horizon 0 leaves the per-partition stall watchdog disarmed
		// (matching the sequential no-faults default) but installs the
		// node-state dump: a cross-partition deadlock error carries
		// every node's blocked state, not just the reporting
		// partition's.
		shards.SetWatchdog(0, func() string {
			return watchdogDump(cluster, proto)
		})
	}

	if rec.enabled {
		if attempt == 0 {
			// The initial state is itself a consistent checkpoint: a
			// crash before the first quiescent epoch restarts the whole
			// program (ghosting is disabled for epoch 0).
			rec.keep(checkpoint.Encode(proto.Capture()))
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
		// Capture at quiescent epochs, then inject any epoch-triggered
		// crash due now (in that order: a crash at epoch E must not
		// lose E's checkpoint, which the recovery restores to).
		cluster.OnEpoch = func(epoch int64) {
			if proto.Quiescent() {
				rec.keep(checkpoint.Encode(proto.Capture()))
			}
			for i, cs := range rec.specs {
				if !rec.fired[i] && cs.Epoch > 0 && cs.Epoch == epoch {
					rec.fired[i] = true
					cluster.Crash(cs.Node)
					if tr := opt.Trace; tr != nil {
						tr.Instant(cs.Node, trace.LaneCompute, "crash:inject", "crash", env.Now(),
							trace.I64("epoch", epoch))
					}
				}
			}
		}
		for i, cs := range rec.specs {
			if cs.Epoch > 0 || rec.fired[i] {
				continue
			}
			i, cs := i, cs
			at := cs.At
			if at < startAt {
				// The scheduled instant fell inside a previous attempt's
				// lost work or the recovery pause; fire immediately.
				at = startAt
			}
			env.Schedule(at, func() {
				if rec.fired[i] {
					return
				}
				rec.fired[i] = true
				cluster.Crash(cs.Node)
				if tr := opt.Trace; tr != nil {
					tr.Instant(cs.Node, trace.LaneCompute, "crash:inject", "crash", env.Now())
				}
			})
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

	for i := 0; i < mc.Nodes; i++ {
		e := execs[i]
		// Each node's compute process lives on the node's own Env — its
		// partition Env under PDES, the single Env otherwise.
		cluster.Nodes[i].Env.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) { e.run(p) })
	}
	if shards != nil {
		err := shards.Run()
		shards.Shutdown()
		var fe *fault
		if errors.As(err, &fe) {
			// The engine's partition dump explains a stuck machine; this
			// is a wrong program.
			err = fe
		}
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
		}
	} else if err := env.Run(); err != nil {
		var ce *crashError
		if errors.As(err, &ce) {
			// Tear down the aborted attempt completely (every parked
			// coroutine unwinds) before the caller rebuilds.
			env.Shutdown()
			rec.checksBefore += cluster.BarrierChecks()
			if cerr := cluster.CheckErr(); cerr != nil {
				return nil, nil, fmt.Errorf("runtime: %w (program %s)", cerr, prog.Name)
			}
			return nil, ce, nil
		}
		var fe *fault
		if errors.As(err, &fe) {
			env.Shutdown() // the other nodes' parked coroutines unwind
		}
		return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
	}
	if err := cluster.CheckErr(); err != nil {
		return nil, nil, fmt.Errorf("runtime: %w (program %s)", err, prog.Name)
	}
	res.BarrierChecks = cluster.BarrierChecks() + rec.checksBefore
	if opt.Backend == SharedMemory {
		// Every run is self-auditing: the quiescent coherence state must
		// satisfy the protocol invariants.
		if err := proto.CheckInvariants(); err != nil {
			return nil, nil, fmt.Errorf("runtime: post-run invariant violation: %w (program %s)", err, prog.Name)
		}
	}
	if shards != nil {
		res.Elapsed = shards.Now() - cluster.TimerStart
		res.PDESWindows = shards.Windows()
		res.PDESHandoffs = shards.Handoffs()
	} else {
		res.Elapsed = env.Now() - cluster.TimerStart
	}
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
