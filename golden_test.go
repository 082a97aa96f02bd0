// Golden-stats determinism tests: the simulated quantities below must
// reproduce exactly. They are the paper's evidence (Fig. 3/4, Table 3
// are ratios of these cells) held as integers, so a drift names the
// cell that moved. A simulator *optimization* that shifts any of them
// is a bug: the order in which the loop executor
// (internal/runtime/fastloop.go) touches memory decides the miss
// sequence, and these rows are the bit-exact gate on it. A deliberate
// *model* change — such as the barrier-epoch message aggregation layer,
// which re-captured every row — must update them together with the
// differential tests, which remain the semantic gate: data words are
// bit-identical with aggregation on or off.
// (Most recent such change: a direct protocol-engine send now drains
// the destination's gather buffer at compose time, so buffered
// segments keep their earlier departure slots — previously a write
// grant parked in a buffer could be overtaken by the next
// transaction's invalidation, leaving the grantee a writer the
// directory had already retired. shallow/grav/cg shifted; the others
// never hit the reordering window.)
package hpfdsm_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/trace"
)

// golden is what every row pins: simulated elapsed time in ns, misses,
// messages and wire bytes, each a cluster total.
type golden [4]int64

func goldenOf(r *runtime.Result) golden {
	return golden{int64(r.Elapsed), r.Stats.TotalMisses(), r.Stats.TotalMessages(), r.Stats.TotalBytes()}
}

// runScaled runs one application at its scaled size.
func runScaled(t *testing.T, app string, mc config.Machine, opt compiler.Level) *runtime.Result {
	t.Helper()
	a, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenSuite is bench.RunSuite at Scaled on 8 nodes — the sweep every suite
// experiment of paperbench formats — cell by cell in grid order: the
// six applications under the nine bench.Variants(8).
var goldenSuite = []struct {
	app, variant string
	golden
}{
	{"pde", "uni", golden{1372787280, 0, 0, 0}},
	{"pde", "unopt-single", golden{1364378110, 17360, 109278, 6260568}},
	{"pde", "unopt-dual", golden{995659610, 17360, 109278, 6260568}},
	{"pde", "base-dual", golden{603777420, 8680, 68758, 5134776}},
	{"pde", "bulk-dual", golden{550268170, 8680, 36542, 4948148}},
	{"pde", "opt-single", golden{730284430, 8680, 42380, 5003671}},
	{"pde", "opt-dual", golden{549657000, 8680, 36404, 4945108}},
	{"pde", "pre-dual", golden{544405460, 8680, 36446, 4234330}},
	{"pde", "mp", golden{343867800, 0, 6958, 3555608}},
	{"shallow", "uni", golden{455626880, 0, 0, 0}},
	{"shallow", "unopt-single", golden{319480570, 3645, 23852, 1346656}},
	{"shallow", "unopt-dual", golden{221097920, 3647, 23878, 1348000}},
	{"shallow", "base-dual", golden{139296450, 1336, 15256, 1160008}},
	{"shallow", "bulk-dual", golden{137584610, 1298, 10937, 1105358}},
	{"shallow", "opt-single", golden{158178630, 1323, 9171, 1067305}},
	{"shallow", "opt-dual", golden{118847410, 1298, 9034, 1067276}},
	{"shallow", "pre-dual", golden{118305410, 1298, 9034, 1002726}},
	{"shallow", "mp", golden{86194160, 0, 614, 624376}},
	{"grav", "uni", golden{292021700, 0, 0, 0}},
	{"grav", "unopt-single", golden{88447860, 470, 5050, 240328}},
	{"grav", "unopt-dual", golden{65452590, 466, 5042, 240016}},
	{"grav", "base-dual", golden{57220300, 214, 3704, 176656}},
	{"grav", "bulk-dual", golden{57279630, 211, 3388, 174432}},
	{"grav", "opt-single", golden{72244140, 206, 3180, 170024}},
	{"grav", "opt-dual", golden{55140330, 211, 3164, 169952}},
	{"grav", "pre-dual", golden{55140330, 211, 3164, 169952}},
	{"grav", "mp", golden{48733480, 0, 1820, 92176}},
	{"lu", "uni", golden{114838000, 0, 0, 0}},
	{"lu", "unopt-single", golden{161664720, 2289, 7264, 439040}},
	{"lu", "unopt-dual", golden{136024670, 2289, 7264, 439040}},
	{"lu", "base-dual", golden{102881380, 609, 9154, 470120}},
	{"lu", "bulk-dual", golden{102308310, 609, 8034, 452200}},
	{"lu", "opt-single", golden{91835090, 609, 5584, 403200}},
	{"lu", "opt-dual", golden{77808310, 609, 5584, 403200}},
	{"lu", "pre-dual", golden{77808310, 609, 5584, 403200}},
	{"lu", "mp", golden{40786680, 0, 658, 265496}},
	{"cg", "uni", golden{57668000, 0, 0, 0}},
	{"cg", "unopt-single", golden{86897670, 791, 4416, 241792}},
	{"cg", "unopt-dual", golden{67414730, 776, 4358, 241480}},
	{"cg", "base-dual", golden{56086380, 543, 4070, 232984}},
	{"cg", "bulk-dual", golden{56044770, 555, 3980, 231819}},
	{"cg", "opt-single", golden{67890760, 558, 3644, 225784}},
	{"cg", "opt-dual", golden{53025230, 555, 3658, 225379}},
	{"cg", "pre-dual", golden{53025230, 555, 3658, 225379}},
	{"cg", "mp", golden{14540200, 0, 700, 85792}},
	{"jacobi", "uni", golden{91479760, 0, 0, 0}},
	{"jacobi", "unopt-single", golden{92021650, 896, 6894, 364184}},
	{"jacobi", "unopt-dual", golden{62486080, 896, 6894, 364184}},
	{"jacobi", "base-dual", golden{28970780, 224, 2910, 198104}},
	{"jacobi", "bulk-dual", golden{27345250, 224, 1934, 189976}},
	{"jacobi", "opt-single", golden{33660250, 224, 1705, 183296}},
	{"jacobi", "opt-dual", golden{24362300, 224, 1612, 183536}},
	{"jacobi", "pre-dual", golden{24362300, 224, 1612, 183536}},
	{"jacobi", "mp", golden{15534280, 0, 126, 114968}},
}

// TestGoldenStatsOptRTElim checks the whole grid; it keeps the name of
// the opt-dual (OptRTElim) column it started as.
func TestGoldenStatsOptRTElim(t *testing.T) {
	if testing.Short() {
		t.Skip("54 scaled simulations")
	}
	names, variants := bench.AppNames(), bench.Variants(8)
	if len(goldenSuite) != len(names)*len(variants) {
		t.Fatalf("%d golden rows for a %dx%d grid", len(goldenSuite), len(names), len(variants))
	}
	suite, err := bench.RunSuite(bench.Config{Sizing: bench.Scaled, Nodes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range names {
		rows := goldenSuite[i*len(variants):][:len(variants)]
		t.Run(app, func(t *testing.T) {
			for j, v := range variants {
				g := rows[j]
				if g.app != app || g.variant != v.Key {
					t.Fatalf("row %s/%s where the grid has %s/%s", g.app, g.variant, app, v.Key)
				}
				if got := goldenOf(suite.Get(app, v.Key)); got != g.golden {
					t.Errorf("%s/%s: elapsed/misses/msgs/bytes %v, golden %v", app, v.Key, got, g.golden)
				}
			}
		})
	}
}

// goldenIrregular pins the paper's future-work class (affine stencil +
// indirect gathers, apps.Irregular) at scaled size on the default
// 8-node machine, with the inspector off and on: the indirect loops are
// the only ones whose loads the compiler cannot schedule, so their
// fault sequence is gated here and nowhere else.
var goldenIrregular = []struct {
	inspect bool
	opt     compiler.Level
	golden
}{
	{false, compiler.OptNone, golden{119111170, 3024, 12446, 660184}},
	{false, compiler.OptRTElim, golden{97298520, 2856, 7846, 631964}},
	{true, compiler.OptNone, golden{135973370, 906, 12914, 699496}},
	{true, compiler.OptRTElim, golden{114109720, 738, 8314, 671276}},
}

func TestGoldenStatsIrregular(t *testing.T) {
	a := apps.Irregular()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenIrregular {
		r, err := runtime.Run(prog, runtime.Options{
			Machine: config.Default(), Opt: g.opt, InspectIndirect: g.inspect})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenOf(r); got != g.golden {
			t.Errorf("inspect=%v %v: elapsed/misses/msgs/bytes %v, golden %v", g.inspect, g.opt, got, g.golden)
		}
	}
}

// goldenCGTree64 pins cg (scaled) on 64 nodes, combining tree of radix
// 4 — the shape of the repository benchmark's tree_scale workload. At
// this size every transfer of every schedule is edge-only (two or three
// vector elements per node, no whole coherence block), so OptPRE and
// OptRTElim coincide and what the rows gate is the part of the pre-loop
// sequence that still runs then: the reader's stale-frame scan over its
// own edge blocks, and the barriers the global live counts decide. The
// jacobi row is the application leg of `paperbench -exp scale`: whole
// blocks do move there, through the same tree.
var goldenCGTree64 = []struct {
	app string
	opt compiler.Level
	golden
}{
	{"cg", compiler.OptRTElim, golden{408039580, 6421, 37000, 2204296}},
	{"cg", compiler.OptPRE, golden{408039580, 6421, 37000, 2204296}},
	{"jacobi", compiler.OptRTElim, golden{16312760, 2016, 14737, 1696198}},
}

func TestGoldenStatsCGTree64(t *testing.T) {
	mc := config.Default().WithNodes(64).WithTopology(config.TreeTopo).WithRadix(4)
	for _, g := range goldenCGTree64 {
		if got := goldenOf(runScaled(t, g.app, mc, g.opt)); got != g.golden {
			t.Errorf("%s %v: elapsed/misses/msgs/bytes %v, golden %v", g.app, g.opt, got, g.golden)
		}
	}
}

// TestGoldenStatsCrashJacobi pins the recovery path: jacobi (scaled, 8
// nodes, OptRTElim) with node 2 crashing at barrier epoch 5. The
// crash-recovery differential proves the data survive; this row is the
// only gate on what the detour costs in simulated time and messages.
func TestGoldenStatsCrashJacobi(t *testing.T) {
	mc := config.Default().WithFaults(config.Faults{
		Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}})
	r := runScaled(t, "jacobi", mc, compiler.OptRTElim)
	if got, want := goldenOf(r), (golden{44211000, 224, 3216, 222032}); got != want {
		t.Errorf("elapsed/misses/msgs/bytes %v, golden %v", got, want)
	}
	if r.Recoveries != 1 || r.RecoveryTime != 5000000 || r.CheckpointsTaken != 22 {
		t.Errorf("recoveries %d, recovery time %d ns, checkpoints %d; golden 1, 5000000, 22",
			r.Recoveries, r.RecoveryTime, r.CheckpointsTaken)
	}
}

// lossyFaults is the wire of the benchmark's lossy_recover workload.
var lossyFaults = config.Faults{Drop: .05, Dup: .02, Jitter: 30 * sim.Microsecond, Reorder: .05, Seed: 1}

// lossyGolden is what a lossy row pins beyond goldenOf: the
// reliable-delivery layer's counters, the barrier audits, and the
// event census of the closing sim.events trace instant.
type lossyGolden struct {
	retransmits, wireDrops, dupsDropped, giveUps, acks, probes int64
	checks                                                     int64
	dispatches, argEvents, fnEvents                            int64
}

// goldenLossy pins the reliable-delivery layer end to end at
// OptRTElim with -check: jacobi on the default flat machine and cg on a
// 16-node radix-4 tree. Every retransmission, drop, duplicate and ACK
// is a PRNG draw or a timer in the event queue, so a change that moves
// the draw order or any Schedule call moves these rows. The cg row is
// also the one gate on tree invalidation over a lossy wire: before
// relayed invalidations learned to spoil an overtaken read response
// (protocol's markOvertaken) it failed its 14th audit.
var goldenLossy = []struct {
	app string
	mc  config.Machine
	golden
	lossyGolden
}{
	{"jacobi", config.Default().WithFaults(lossyFaults),
		golden{61823619, 224, 3393, 237902}, lossyGolden{119, 149, 78, 0, 1663, 0, 22, 4886, 8218, 16033}},
	{"cg", config.Default().WithNodes(16).WithTopology(config.TreeTopo).WithRadix(4).WithFaults(lossyFaults),
		golden{170999886, 1755, 20747, 851100}, lossyGolden{888, 1016, 581, 0, 9955, 0, 45, 10474, 23567, 52342}},
}

func TestGoldenStatsLossy(t *testing.T) {
	for _, g := range goldenLossy {
		a, err := apps.ByName(g.app)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(g.mc.Nodes)
		r, err := runtime.Run(prog, runtime.Options{Machine: g.mc, Opt: compiler.OptRTElim, Check: true, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats
		got := lossyGolden{st.TotalRetransmits(), st.TotalWireDrops(), st.TotalDupsDropped(), st.TotalGiveUps(),
			st.TotalAcksSent(), st.TotalProbesSent(), r.BarrierChecks, 0, 0, 0}
		for _, e := range tr.Events() {
			if e.Ph != trace.PhaseInstant || e.Name != "sim.events" {
				continue
			}
			for _, a := range e.Args {
				v, _ := strconv.ParseInt(a.J, 10, 64)
				switch a.K {
				case "dispatches":
					got.dispatches = v
				case "arg_events":
					got.argEvents = v
				case "fn_events":
					got.fnEvents = v
				}
			}
		}
		if gg := goldenOf(r); gg != g.golden {
			t.Errorf("%s: elapsed/misses/msgs/bytes %v, golden %v", g.app, gg, g.golden)
		}
		if got != g.lossyGolden {
			t.Errorf("%s: reliable counters, audits and census %+v, golden %+v", g.app, got, g.lossyGolden)
		}
	}
}

// TestLossDumpsPinned pins the two loss diagnostics byte for byte: the
// stall watchdog's dump of jacobi on a wire that loses 99.9 % of
// transmissions, and the deadlock dump once retransmit exhaustion gives
// up (the verify skill's {"Drop": 0.6, "MaxRetries": 2} machine). Both
// list every reliable-delivery channel and each of its unacked messages
// in (source, destination, sequence) order.
func TestLossDumpsPinned(t *testing.T) {
	giveUp, err := config.FromJSON(strings.NewReader(`{"Faults": {"Drop": 0.6, "MaxRetries": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		mc   config.Machine
	}{
		{"watchdog_drop999.golden", config.Default().WithFaults(config.Faults{Drop: 0.999, Seed: 1})},
		{"giveup_deadlock.golden", giveUp},
	} {
		_, err := runtime.Run(prog, runtime.Options{Machine: c.mc, Opt: compiler.OptRTElim})
		if err == nil {
			t.Fatalf("%s: the run completed; want its diagnostic", c.file)
		}
		want, rerr := os.ReadFile(filepath.Join("testdata", c.file))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got := err.Error() + "\n"; got != string(want) {
			t.Errorf("%s: the diagnostic moved (%d bytes, golden %d):\n%s", c.file, len(got), len(want), got)
		}
	}
}

// TestGoldenReadMiss pins Table 1's measured row: one remote read miss
// of a 128-byte block stalls the reader 92.3 us (paper: 93).
func TestGoldenReadMiss(t *testing.T) {
	if got := bench.MeasureReadMiss(); got != 92300 {
		t.Errorf("read-miss stall %d ns, golden 92300", got)
	}
}

// TestGoldenStatsScaleSweep pins the synchronization and invalidation
// microbenchmarks of `paperbench -exp scale` over N in {8, 64, 256,
// 1024} x {flat, tree}: the sweep's total latency (barrier + allreduce
// + invalidation round, summed over the eight cells), messages and
// wire bytes, and the two barrier latencies at N=1024 that carry the
// O(N) against O(log N) claim. ScaleSweep itself fails unless the tree
// reduces to the same bits as flat at every N.
func TestGoldenStatsScaleSweep(t *testing.T) {
	cells, err := bench.ScaleSweep(bench.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var latency sim.Time
	var msgs, bytes int64
	barrier1024 := map[config.Topology]sim.Time{}
	for _, c := range cells {
		latency += c.Barrier + c.Reduce + c.InvalLat
		msgs += c.SyncMsgs + c.InvalMsgs
		bytes += c.SyncBytes + c.InvalBytes
		if c.Nodes == 1024 {
			barrier1024[c.Topo] = c.Barrier
		}
	}
	if latency != 137839650 || msgs != 59312 || bytes != 1591840 {
		t.Errorf("latency/msgs/bytes %d %d %d, golden 137839650 59312 1591840", latency, msgs, bytes)
	}
	if flat, tree := barrier1024[config.Flat], barrier1024[config.TreeTopo]; flat != 20460000 || tree != 197000 {
		t.Errorf("N=1024 barrier flat %d ns, tree %d ns; golden 20460000, 197000", flat, tree)
	}
}
