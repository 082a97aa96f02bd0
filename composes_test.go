// The composition property. The paper's compiler-directed calls may
// change how data moves, never what the machine computes, and the same
// holds for every other feature of the simulator: topology,
// aggregation, faults, crashes, observers and the parallel engine. Each
// row of relations states one such claim once, for every configuration
// it applies to, against a partner configuration it derives. The corpus
// names the configurations checked: every cell of the differential
// grids and soaks the property replaced, under their old test names,
// and the crossings TestComposes adds. However many cells and relations
// ask for a configuration, it runs once per process.
package hpfdsm_test

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/trace"
)

// conf is one configuration of the simulator. The zero value is the
// default machine at OptNone on the shared-memory backend.
type conf struct {
	app                   string // an apps name, or "storm" (benchmark/programs/storm.hpf at n = 64)
	opt                   compiler.Level
	nodes                 int  // 0 for the default machine's
	tree                  bool // combining-tree topology
	radix                 int  // tree radix, 0 for the default
	mp                    bool // message-passing backend
	block                 int  // coherence block bytes, 0 for the default
	single                bool // single-CPU nodes: handlers steal compute cycles
	noAgg                 bool
	wire                  config.Faults // drops, duplicates, reordering and jitter; never crashes
	crashes               []config.CrashSpec
	ckpt                  bool
	parts                 int
	check, trace, profile bool
	zeroLatency           bool // MsgTime(0) = 0
	twice                 bool // R0: compared with a second run of itself
}

// String names c by its app, its level and its other non-zero fields;
// it is also c's memo key.
func (c conf) String() string {
	v := reflect.ValueOf(c)
	s := c.app + " " + c.opt.String()
	for i := 2; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			s += fmt.Sprintf(" %s:%+v", v.Type().Field(i).Name, v.Field(i))
		}
	}
	return s
}

// base is c with everything reset that must leave the data alone.
func (c conf) base() conf {
	c.tree, c.radix, c.noAgg, c.single, c.wire, c.crashes = false, 0, false, false, config.Faults{}, nil
	return c.unobserved()
}

// unobserved is c without observers, checkpoints, partitions or rerun.
func (c conf) unobserved() conf {
	c.check, c.trace, c.profile, c.ckpt, c.parts, c.twice = false, false, false, false, 0, false
	return c
}

func (c conf) options() (*ir.Program, runtime.Options, error) {
	prog, err := program(c.app)
	mc := config.Default()
	if c.nodes > 0 {
		mc = mc.WithNodes(c.nodes)
	}
	if c.tree {
		mc = mc.WithTopology(config.TreeTopo).WithRadix(c.radix)
	}
	if c.block > 0 {
		mc = mc.WithBlockSize(c.block)
	}
	if c.noAgg {
		mc = mc.WithoutCoalesce()
	}
	if c.single {
		mc = mc.WithCPUMode(config.SingleCPU)
	}
	if c.zeroLatency {
		mc.WireLatency, mc.MsgHeader = 0, 0
	}
	if c.wire.Active() || len(c.crashes) > 0 {
		f := c.wire
		f.Crashes = c.crashes
		mc = mc.WithFaults(f)
	}
	o := runtime.Options{Machine: mc, Opt: c.opt, Checkpoint: c.ckpt, Partitions: c.parts, Check: c.check, Profile: c.profile}
	if c.mp {
		o.Backend = runtime.MessagePassing
	}
	if c.trace {
		o.Trace = trace.New(mc.Nodes)
	}
	return prog, o, err
}

var storm = sync.OnceValues(func() (*ir.Program, error) {
	src, err := os.ReadFile("benchmark/programs/storm.hpf")
	if err != nil {
		return nil, err
	}
	return lang.ParseWithOverrides(string(src), map[string]int{"N": 64})
})

func program(app string) (*ir.Program, error) {
	if app == "storm" {
		return storm()
	}
	a, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	return a.Program(a.ScaledParams)
}

// outputs is what a run computed, how it got there, and what its
// observers counted.
type outputs struct {
	Data struct {
		Arrays  map[string][]float64 // every array of the program
		Scalars map[string]float64
		Journal []float64 // every reduction's combined value
	}
	Timing struct {
		Elapsed      sim.Time
		Nodes        []stats.Node
		Recoveries   int64
		RecoveryTime sim.Time
	}
	Observed struct {
		BarrierChecks, CheckpointsTaken, CheckpointBytes int64
	}
}

// runCalls counts the runtime.Run calls.
var runCalls atomic.Int64

func simulate(c conf) (*outputs, error) {
	prog, o, err := c.options()
	if err != nil {
		return nil, err
	}
	runCalls.Add(1)
	res, err := runtime.Run(prog, o)
	if err != nil {
		return nil, err
	}
	// Each node's measured time splits into compute, communication and
	// barrier wait; none is counted twice, so they never sum past the
	// elapsed time.
	for i, n := range res.Stats.Nodes {
		if sum := n.ComputeTime + n.CommTime + n.BarrierTime; sum > res.Elapsed {
			return nil, fmt.Errorf("node %d: compute %d + comm %d + barrier %d = %dns, past the elapsed %dns",
				i, n.ComputeTime, n.CommTime, n.BarrierTime, sum, res.Elapsed)
		}
	}
	out := &outputs{}
	out.Data.Arrays = map[string][]float64{}
	for _, arr := range prog.Arrays {
		out.Data.Arrays[arr.Name] = res.ArrayData(arr.Name)
	}
	out.Data.Scalars, out.Data.Journal = res.Scalars, slices.Clone(res.ReduceJournal())
	out.Timing.Elapsed, out.Timing.Nodes = res.Elapsed, res.Stats.Nodes
	out.Timing.Recoveries, out.Timing.RecoveryTime = res.Recoveries, res.RecoveryTime
	out.Observed.BarrierChecks, out.Observed.CheckpointsTaken, out.Observed.CheckpointBytes = res.BarrierChecks, res.CheckpointsTaken, res.CheckpointBytes
	return out, nil
}

type memoRun struct {
	once  sync.Once
	out   *outputs
	err   error
	cells atomic.Int64 // the cells that asked for it
}

var memo sync.Map // conf.String() -> *memoRun

// run returns c's outputs, simulating c only the first time any cell
// asks for it.
func run(t *testing.T, c conf) *outputs {
	t.Helper()
	v, _ := memo.LoadOrStore(c.String(), &memoRun{})
	m := v.(*memoRun)
	m.cells.Add(1)
	m.once.Do(func() { m.out, m.err = simulate(c) })
	if m.err != nil {
		t.Fatalf("%v: %v", c, m.err)
	}
	return m.out
}

// reference holds each app's sequential Go results.
var reference sync.Map // app name -> func() map[string][]float64

func referenceOf(a *apps.App) map[string][]float64 {
	v, _ := reference.LoadOrStore(a.Name, sync.OnceValue(func() map[string][]float64 { return a.Reference(a.ScaledParams) }))
	return v.(func() map[string][]float64)()
}

// relation is one metamorphic claim: for every configuration c it
// applies to, the named parts of c's outputs equal partner(c)'s, or,
// with no partner, c's arrays equal the sequential Go reference's.
type relation struct {
	name    string
	applies func(c conf) bool
	partner func(c conf) conf
	same    []string // fields of outputs
}

var relations = []relation{
	{"R0 determinism", func(c conf) bool { return c.twice },
		func(c conf) conf { c.twice = false; return c }, []string{"Data", "Timing", "Observed"}},
	{"R1 reference", func(c conf) bool { return c.app != "storm" }, nil, nil},
	// Observers and the parallel engine leave every output but their
	// own alone. Runs with faults or crashes keep their audits on and
	// are held to R4 instead.
	{"R2 observers and engine", func(c conf) bool {
		return (c.check || c.trace || c.profile || c.ckpt || c.parts > 1) && !c.wire.Active() && len(c.crashes) == 0
	}, conf.unobserved, []string{"Data", "Timing"}},
	{"R3 topology, aggregation and CPUs", func(c conf) bool { return c.tree || c.noAgg || c.single }, conf.base, []string{"Data"}},
	{"R4 faults and crashes", func(c conf) bool { return c.wire.Active() || len(c.crashes) > 0 }, conf.base, []string{"Data"}},
}

// againstReference is R1: bit-exact, except that apps whose reductions
// feed their arrays (cg) reassociate against the serial reference and
// are held to the app's tolerance.
func againstReference(c conf, got *outputs) string {
	a, _ := apps.ByName(c.app)
	ref := referenceOf(a)
	for _, name := range a.CheckArrays {
		g, w := got.Data.Arrays[name], ref[name]
		if c.app != "cg" {
			if d := firstDiff(reflect.ValueOf(g), reflect.ValueOf(w)); d != "" {
				return "Data.Arrays[" + name + "]" + d + " (the reference)"
			}
			continue
		}
		for i := range w {
			if d := math.Abs(g[i]-w[i]) / math.Max(1, math.Abs(w[i])); !(d <= a.Tol) {
				return fmt.Sprintf("Data.Arrays[%s][%d] = %g, reference %g: relative error %g over %g", name, i, g[i], w[i], d, a.Tol)
			}
		}
	}
	return ""
}

// sane checks what one run must show of its own configuration, and
// that the coalescer engaged when the entry says it must.
func sane(c conf, o *outputs, engages bool) string {
	var msgs, segs, carriers, drops, retrans int64
	for _, n := range o.Timing.Nodes {
		msgs, segs, carriers = msgs+n.MsgsSent, segs+n.SegsCoalesced, carriers+n.CarriersSent
		drops, retrans = drops+n.WireDrops, retrans+n.Retransmits
	}
	switch {
	case c.check && !c.mp && o.Observed.BarrierChecks == 0:
		return "coherence audits did not run"
	case c.mp && o.Observed.BarrierChecks+o.Observed.CheckpointsTaken != 0:
		return "the message-passing backend audited or checkpointed"
	case int(o.Timing.Recoveries) != len(c.crashes):
		return fmt.Sprintf("%d recoveries for %d configured crash(es)", o.Timing.Recoveries, len(c.crashes))
	case c.wire.Drop*float64(msgs) >= 10 && (drops == 0 || retrans == 0):
		// At ten expected drops, none would be a 1-in-20000 draw.
		return fmt.Sprintf("wire faults inert: %d drops, %d retransmissions of %d messages", drops, retrans, msgs)
	case c.noAgg && segs+carriers != 0:
		return fmt.Sprintf("aggregation off, yet %d segments coalesced into %d carriers", segs, carriers)
	case engages && !c.noAgg && segs == 0:
		return "aggregation on, yet the coalescer never engaged"
	}
	return ""
}

func sameParts(got, want *outputs, parts ...string) string {
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for _, p := range parts {
		if d := firstDiff(g.FieldByName(p), w.FieldByName(p)); d != "" {
			return p + d
		}
	}
	return ""
}

// firstDiff describes where a first differs from b, as a path and the
// two values, or is "" when nowhere; floats compare by their bits.
func firstDiff(a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDiff(a.Field(i), b.Field(i)); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": length %d, want %d", a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Map:
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			if !b.MapIndex(k).IsValid() {
				return fmt.Sprintf("[%v] present, want absent", k)
			}
			if d := firstDiff(a.MapIndex(k), b.MapIndex(k)); d != "" {
				return fmt.Sprintf("[%v]%s", k, d)
			}
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf(": %d keys, want %d", a.Len(), b.Len())
		}
	case reflect.Float64:
		if x, y := a.Float(), b.Float(); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf(" = %v (%#x), want %v (%#x)", x, math.Float64bits(x), y, math.Float64bits(y))
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf(" = %v, want %v", a, b)
		}
	}
	return ""
}

// verify checks every relation that applies to each of e's
// configurations.
func verify(t *testing.T, e entry) {
	t.Helper()
	seen := map[string]*outputs{}
	get := func(c conf) *outputs {
		if seen[c.String()] == nil {
			seen[c.String()] = run(t, c)
		}
		return seen[c.String()]
	}
	for _, c := range e.confs {
		got := get(c)
		if d := sane(c, got, e.engages); d != "" {
			t.Errorf("%v: %s", c, d)
		}
		for _, r := range relations {
			if !r.applies(c) {
				continue
			}
			d := ""
			if r.partner == nil {
				d = againstReference(c, got)
			} else {
				d = sameParts(got, get(r.partner(c)), r.same...)
			}
			if d != "" {
				t.Errorf("%s: %v: %s", r.name, c, d)
			}
		}
	}
}

// entry is one named corpus cell; a slash in its name nests a subtest.
type entry struct {
	name    string
	confs   []conf
	engages bool // the coalescer must engage where aggregation is on
}

// composes runs the corpus entries grouped under the calling test's
// name, each as a parallel subtest.
func composes(t *testing.T) { runEntries(t, corpus()[t.Name()]) }

func runEntries(t *testing.T, es []entry) {
	for len(es) > 0 {
		head, _, _ := strings.Cut(es[0].name, "/")
		var sub []entry
		for len(es) > 0 {
			h, rest, _ := strings.Cut(es[0].name, "/")
			if h != head {
				break
			}
			e := es[0]
			e.name, es = rest, es[1:]
			sub = append(sub, e)
		}
		t.Run(head, func(t *testing.T) {
			t.Parallel()
			if len(sub) == 1 && sub[0].name == "" {
				verify(t, sub[0])
				return
			}
			runEntries(t, sub)
		})
	}
}

// corpus holds every checked configuration, grouped by the test that
// runs it. The cells of the grids the property replaced keep their
// test and subtest names. Under the race detector the heaviest groups
// shrink to one level at 64 nodes and to jacobi and cg on the tree
// under pdes.
var corpus = sync.OnceValue(func() map[string][]entry {
	levels := []compiler.Level{compiler.OptNone, compiler.OptBulk, compiler.OptRTElim}
	rtelim := compiler.OptRTElim
	lossy := config.Faults{Drop: 0.02, Dup: 0.01, Reorder: 0.01, Jitter: 5000, Seed: 1}
	k1 := []config.CrashSpec{{Node: 2, Epoch: 3}}
	k2 := []config.CrashSpec{{Node: 2, Epoch: 3}, {Node: 1, Epoch: 6}}
	interiorLeaf := []config.CrashSpec{{Node: 1, Epoch: 3}, {Node: 11, Epoch: 6}}
	g := map[string][]entry{}
	add := func(test, name string, confs ...conf) *entry {
		g[test] = append(g[test], entry{name: name, confs: confs})
		return &g[test][len(g[test])-1]
	}
	for _, a := range apps.All() {
		n := a.Name
		for _, opt := range levels {
			add("TestDifferentialAgainstReference", n+"/"+opt.String()+"/sm", conf{app: n, opt: opt})
			add("TestDifferentialAgainstReference", n+"/"+opt.String()+"/mp", conf{app: n, opt: opt, mp: true})
			add("TestPDESDifferential", n+"/"+opt.String(),
				conf{app: n, opt: opt, parts: 2}, conf{app: n, opt: opt, parts: 4}, conf{app: n, opt: opt, parts: 8})
			if opt == rtelim || !raceDetectorEnabled {
				add("TestScaleDifferentialFlatVsTree", n+"/"+opt.String(),
					conf{app: n, opt: opt, nodes: 64}, conf{app: n, opt: opt, nodes: 64, tree: true, check: true})
			}
		}
		for _, opt := range append(levels, compiler.OptPRE) {
			add("TestCrashRecoveryDifferential", n+"/"+opt.String()+"/k1", conf{app: n, opt: opt, check: true, crashes: k1})
			add("TestCrashRecoveryDifferential", n+"/"+opt.String()+"/k2", conf{app: n, opt: opt, check: true, crashes: k2})
		}
		for _, opt := range []compiler.Level{compiler.OptNone, rtelim} {
			add("TestCrashRecoveryDifferentialTree", n+"/"+opt.String()+"/interior+leaf",
				conf{app: n, opt: opt, nodes: 16, tree: true, radix: 4, check: true, crashes: interiorLeaf})
		}
		add("TestPDESDifferentialMessagePassing", n, conf{app: n, opt: rtelim, mp: true, parts: 2},
			conf{app: n, opt: rtelim, mp: true, parts: 4}, conf{app: n, opt: rtelim, mp: true, parts: 8})
		if n == "jacobi" || n == "cg" || !raceDetectorEnabled {
			add("TestScaleTreePDESDifferential", n, conf{app: n, opt: rtelim, nodes: 64, tree: true, parts: 4})
		}
	}
	for _, shape := range []struct{ nodes, radix int }{{19, 4}, {24, 8}} {
		add("TestTreeRaggedShapes", fmt.Sprintf("%dx%d", shape.nodes, shape.radix),
			conf{app: "cg", opt: rtelim, nodes: shape.nodes, check: true},
			conf{app: "cg", opt: rtelim, nodes: shape.nodes, tree: true, radix: shape.radix, check: true})
	}
	for _, n := range []string{"jacobi", "shallow"} {
		var soak []conf
		for _, crashes := range [][]config.CrashSpec{{{Node: 2, Epoch: 4}}, {{Node: 2, Epoch: 4}, {Node: 3, Epoch: 8}}} {
			for _, noAgg := range []bool{false, true} {
				soak = append(soak, conf{app: n, opt: rtelim, check: true, wire: lossy, crashes: crashes, noAgg: noAgg})
			}
		}
		add("TestCrashSoakUnderFaults", n, soak...)
	}
	add("TestCrashSoakDeterministic", "jacobi", conf{app: "jacobi", opt: rtelim, check: true, twice: true,
		wire:    config.Faults{Drop: 0.03, Dup: 0.02, Reorder: 0.02, Jitter: 5000, Seed: 7},
		crashes: []config.CrashSpec{{Node: 1, Epoch: 3}, {Node: 3, Epoch: 7}}})
	for _, n := range []string{"jacobi", "shallow", "lu", "cg"} {
		// lu's phases collapse to one wire message per pair: it never
		// aggregates.
		add("TestAggregationSoakUnderFaults", n, conf{app: n, opt: rtelim, check: true, wire: lossy},
			conf{app: n, opt: rtelim, check: true, wire: lossy, noAgg: true}).engages = n != "lu"
	}
	for _, opt := range []compiler.Level{compiler.OptNone, rtelim} {
		add("TestTracingDoesNotPerturbSimulation", opt.String(), conf{app: "jacobi", opt: opt, trace: true})
	}
	// Crossings no replaced grid made.
	add("TestComposes", "observers/sm", conf{app: "jacobi", opt: rtelim, check: true, trace: true, profile: true, ckpt: true})
	add("TestComposes", "observers/mp", conf{app: "jacobi", opt: rtelim, mp: true, check: true, trace: true, profile: true, ckpt: true})
	add("TestComposes", "tree/lossy/crash/noagg", conf{app: "jacobi", opt: rtelim, nodes: 16, tree: true, radix: 4,
		check: true, wire: lossy, crashes: interiorLeaf, noAgg: true})
	add("TestComposes", "pdes/clamped", conf{app: "jacobi", opt: rtelim, nodes: 1, parts: 2, check: true})
	// Figure 3's single-CPU columns: handlers steal the compute
	// processor's cycles, which moves time and never data.
	for _, a := range apps.All() {
		add("TestComposes", "single/"+a.Name, conf{app: a.Name, opt: rtelim, single: true})
	}
	add("TestComposes", "single/tree/lossy/crash", conf{app: "jacobi", opt: rtelim, nodes: 16, tree: true, radix: 4,
		single: true, check: true, wire: lossy, crashes: interiorLeaf})
	return g
})

func TestDifferentialAgainstReference(t *testing.T)    { composes(t) }
func TestPDESDifferential(t *testing.T)                { composes(t) }
func TestPDESDifferentialMessagePassing(t *testing.T)  { composes(t) }
func TestScaleDifferentialFlatVsTree(t *testing.T)     { composes(t) }
func TestScaleTreePDESDifferential(t *testing.T)       { composes(t) }
func TestTreeRaggedShapes(t *testing.T)                { composes(t) }
func TestCrashRecoveryDifferential(t *testing.T)       { composes(t) }
func TestCrashRecoveryDifferentialTree(t *testing.T)   { composes(t) }
func TestCrashSoakUnderFaults(t *testing.T)            { composes(t) }
func TestCrashSoakDeterministic(t *testing.T)          { composes(t) }
func TestAggregationSoakUnderFaults(t *testing.T)      { composes(t) }
func TestTracingDoesNotPerturbSimulation(t *testing.T) { composes(t) }

// TestComposes runs its own crossings, checks the refusal table, and
// logs how many simulations the tests above it in this file shared.
func TestComposes(t *testing.T) {
	t.Run("refusals", testRefusals)
	composes(t)
	t.Cleanup(func() {
		configs, shared, saved := 0, 0, int64(0)
		memo.Range(func(_, v any) bool {
			if n := v.(*memoRun).cells.Load(); n > 1 {
				shared, saved = shared+1, saved+n-1
			}
			configs++
			return true
		})
		t.Logf("%d runtime.Run calls for %d configurations; %d of them served more than one cell, saving %d runs",
			runCalls.Load(), configs, shared, saved)
	})
}

// features are conf's switches.
var features = []struct {
	name string
	set  func(c *conf)
}{
	{"mp", func(c *conf) { c.mp = true }},
	{"indirect", func(c *conf) { c.app = "irregular" }},
	{"crash", func(c *conf) { c.crashes = []config.CrashSpec{{Node: 1, Epoch: 3}} }},
	{"wire", func(c *conf) { c.wire = config.Faults{Drop: 0.02, Dup: 0.01, Reorder: 0.01, Jitter: 5000, Seed: 1} }},
	{"pdes", func(c *conf) { c.parts = 2 }},
	{"tree", func(c *conf) { c.tree = true }},
	{"noagg", func(c *conf) { c.noAgg = true }},
	{"ckpt", func(c *conf) { c.ckpt = true }},
	{"check", func(c *conf) { c.check = true }},
	{"trace", func(c *conf) { c.trace = true }},
	{"profile", func(c *conf) { c.profile = true }},
	{"zero-latency", func(c *conf) { c.zeroLatency = true }},
	{"block64", func(c *conf) { c.block = 64 }},
	{"single", func(c *conf) { c.single = true }},
}

// refused is every pair of features Run refuses, with its error for
// jacobi on two partitions: a refusal added to runtime's table has to
// be added here too.
var refused = map[[2]string]string{
	{"mp", "indirect"}:       "runtime: program IRREGULAR contains indirect array subscripts and is not amenable to message passing; use the shared-memory backend",
	{"mp", "crash"}:          "runtime: crash injection requires the shared-memory backend (program JACOBI)",
	{"crash", "pdes"}:        "runtime: pdes (Partitions=2) is incompatible with fault injection — the reliable-delivery timers and crash recovery are not partitioned; rerun with Partitions=1 (program JACOBI)",
	{"wire", "pdes"}:         "runtime: pdes (Partitions=2) is incompatible with fault injection — the reliable-delivery timers and crash recovery are not partitioned; rerun with Partitions=1 (program JACOBI)",
	{"pdes", "ckpt"}:         "runtime: pdes (Partitions=2) is incompatible with checkpointing — partitions run window by window, so the quiescence predicate at one node's barrier instant sees the other partitions up to a window away; rerun with Partitions=1 (program JACOBI)",
	{"pdes", "check"}:        "runtime: pdes (Partitions=2) is incompatible with barrier-instant coherence checks — partitions run window by window, so an audit at one node's barrier instant sees the other partitions up to a window away; rerun with Partitions=1 (program JACOBI)",
	{"pdes", "trace"}:        "runtime: pdes (Partitions=2) is incompatible with tracing — partitions run window by window, so events reach the tracer out of time order; rerun with Partitions=1 (program JACOBI)",
	{"pdes", "profile"}:      "runtime: pdes (Partitions=2) is incompatible with per-loop profiling — partitions run window by window, so loop regions reach the profile out of time order; rerun with Partitions=1 (program JACOBI)",
	{"pdes", "zero-latency"}: "runtime: pdes needs a positive minimum message latency for its lookahead window; this machine has MsgTime(0)=0 (program JACOBI)",
}

// refusal is the error refused holds for a pair of the features on,
// "" if none is.
func refusal(on []bool) string {
	for i := range features {
		for j := i + 1; j < len(features); j++ {
			if want := refused[[2]string{features[i].name, features[j].name}]; on[i] && on[j] && want != "" {
				return want
			}
		}
	}
	return ""
}

// testRefusals asserts that the table runtime.Refusal walks refuses
// exactly the refused pairs, with their errors, and that Run refuses
// through it.
func testRefusals(t *testing.T) {
	ran := false
	for i := range features {
		for j := i + 1; j < len(features); j++ {
			on := make([]bool, len(features))
			on[i], on[j] = true, true
			c := conf{app: "jacobi", opt: compiler.OptRTElim}
			features[i].set(&c)
			features[j].set(&c)
			prog, o, err := c.options()
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if err := runtime.Refusal(prog, o); err != nil {
				got = err.Error()
			}
			if want := refusal(on); got != want {
				t.Errorf("%s x %s: refused with %q, want %q", features[i].name, features[j].name, got, want)
			}
			if got != "" && !ran {
				ran = true
				runCalls.Add(1)
				if _, err := runtime.Run(prog, o); err == nil || err.Error() != got {
					t.Errorf("%s x %s: Run gave %v, want the table's %q", features[i].name, features[j].name, err, got)
				}
			}
		}
	}
}

// FuzzComposes draws a configuration and checks every relation that
// applies to it, or that Run refuses it when, and only when, two of
// its features are a refused pair. The seeds are corpus cells, so that
// go test runs no configuration twice.
func FuzzComposes(f *testing.F) {
	names := []string{"pde", "shallow", "grav", "lu", "cg", "jacobi", "storm"}
	f.Add(uint8(5), uint8(6), uint8(compiler.OptRTElim), uint16(0))
	f.Add(uint8(5), uint8(6), uint8(compiler.OptRTElim), uint16(1<<0|1<<4))
	f.Add(uint8(5), uint8(6), uint8(compiler.OptNone), uint16(1<<9))
	f.Fuzz(func(t *testing.T, app, nodes, opt uint8, flags uint16) {
		c := conf{app: names[int(app)%len(names)], nodes: 2 + int(nodes)%15, opt: compiler.Level(opt % 5), twice: flags&(1<<15) != 0}
		if c.nodes == config.Default().Nodes {
			c.nodes = 0
		}
		on := make([]bool, len(features))
		for i := range features {
			if on[i] = flags&(1<<i) != 0; on[i] {
				features[i].set(&c)
			}
		}
		prog, o, _ := c.options()
		if want := runtime.Refusal(prog, o); (want != nil) != (refusal(on) != "") {
			t.Fatalf("%v: refused with %v, want a refusal: %v", c, want, refusal(on) != "")
		} else if want != nil {
			if _, err := runtime.Run(prog, o); err == nil || err.Error() != want.Error() {
				t.Fatalf("%v: Run gave %v, want the table's %v", c, err, want)
			}
			return
		}
		verify(t, entry{confs: []conf{c}})
	})
}
