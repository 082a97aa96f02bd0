package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/trace"
)

// counts holds exact simulated statistics: at a fixed seed every entry
// repeats bit for bit, so two passes (or two commits) compare with ==.
type counts map[string]int64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// prepared is a unit after set-up: parsed, with its reference computed.
type prepared struct {
	unit
	prog *ir.Program
	want map[string][]float64
}

// layoutsFor places a program's arrays exactly as runtime.Run and
// analysis.Verify do, so an Analysis built here is the one they use.
func layoutsFor(prog *ir.Program, mc config.Machine) map[*ir.Array]sections.Layout {
	sp := memory.NewSpace(mc)
	layouts := make(map[*ir.Array]sections.Layout)
	for _, arr := range prog.Arrays {
		base := sp.Alloc(arr.Name, arr.Elems()*8)
		layouts[arr] = sections.Layout{Base: base, Extents: arr.Extents, ElemSize: 8}
	}
	return layouts
}

func prepare(units []unit) ([]prepared, error) {
	ps := make([]prepared, len(units))
	for i, u := range units {
		ps[i].unit = u
		if u.verify {
			continue // a verify unit parses inside every pass
		}
		prog, err := lang.ParseWithOverrides(u.src, u.params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.label, err)
		}
		ps[i].prog = prog
		ps[i].want = u.ref(u.params)
	}
	return ps, nil
}

// frontEnd is the whole of a verify unit and the first three stages of
// a traced simulation unit. fresh selects compiler.New over the
// cross-run cache.
func frontEnd(u unit, fresh bool, sp *spans) (*ir.Program, *analysis.Report, error) {
	sp.begin("parse")
	prog, err := lang.ParseWithOverrides(u.src, u.params)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp.begin("analyse")
	build := compiler.Cached
	if fresh {
		build = compiler.New
	}
	an, err := build(prog, u.mc.Nodes, layoutsFor(prog, u.mc), u.mc.BlockSize)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp.begin("verify")
	rep := analysis.VerifyAnalysis(an, levelsOf(u)...)
	sp.end()
	return prog, rep, nil
}

func verifyCounts(rep *analysis.Report) counts {
	return counts{"compiler.schedules": int64(rep.Instances), "analysis.errors": int64(rep.Errors())}
}

func simulate(p *prepared, tr *trace.Tracer) (*runtime.Result, error) {
	return runtime.Run(p.prog, runtime.Options{Machine: p.mc, Opt: p.level, Check: p.check,
		Partitions: p.parts, Trace: tr, Profile: tr != nil})
}

func simCounts(res *runtime.Result) counts {
	st := res.Stats
	var upgrades, calls int64
	for i := range st.Nodes {
		upgrades += st.Nodes[i].UpgradeMisses
		calls += st.Nodes[i].ProtoCalls
	}
	return counts{
		"sim_ns":                 res.Elapsed,
		"protocol.misses":        st.TotalMisses(),
		"protocol.upgrades":      upgrades,
		"protocol.calls":         calls,
		"network.msgs":           st.TotalMessages(),
		"network.wire_bytes":     st.TotalBytes(),
		"network.segs_coalesced": st.TotalSegsCoalesced(),
		"network.carriers":       st.TotalCarriersSent(),
		"network.retransmits":    st.TotalRetransmits(),
		"network.wire_drops":     st.TotalWireDrops(),
		"checkpoint.captures":    res.CheckpointsTaken,
		"checkpoint.bytes":       res.CheckpointBytes,
		"runtime.recoveries":     res.Recoveries,
		"runtime.barrier_checks": res.BarrierChecks,
	}
}

// checkArrays compares the run's final arrays with the sequential Go
// reference, within the app's tolerance.
func checkArrays(p *prepared, res *runtime.Result) error {
	for _, name := range p.arrays {
		got, want := res.ArrayData(name), p.want[name]
		if len(got) != len(want) {
			return fmt.Errorf("%s: array %s has %d elements, reference %d", p.label, name, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(got[i] - want[i]); !(d <= p.tol*math.Max(1, math.Abs(want[i]))) {
				return fmt.Errorf("%s: array %s[%d] = %g, reference %g", p.label, name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// passResult is one pass through the workload's units.
type passResult struct {
	wall, base time.Duration // timed units, and their sequential twins
	mallocs    uint64
	allocBytes uint64
	counts     counts // summed over the units that are not twins
	attempted  int
	failures   []string
	results    []*runtime.Result // per unit, nil for a verify unit; for checkArrays
	unitWall   []time.Duration   // per unit
}

func (r *passResult) fail(format string, a ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

// runPass executes every unit once, untraced. Only the calls into the
// simulator (or, for a verify unit, the front end) are inside the timed
// and allocation-counted region.
func runPass(ps []prepared) passResult {
	r := passResult{counts: counts{}, results: make([]*runtime.Result, len(ps))}
	// Every pass starts from a collected heap, so that the garbage of the
	// pass before it is not this pass's collector work.
	goruntime.GC()
	var twin counts
	for i := range ps {
		p := &ps[i]
		r.attempted++
		var ms0, ms1 goruntime.MemStats
		goruntime.ReadMemStats(&ms0)
		t0 := time.Now()
		var c counts
		var res *runtime.Result
		var err error
		if p.verify {
			var rep *analysis.Report
			if _, rep, err = frontEnd(p.unit, true, nil); err == nil {
				c = verifyCounts(rep)
			}
		} else if res, err = simulate(p, nil); err == nil {
			c = simCounts(res)
		}
		d := time.Since(t0)
		goruntime.ReadMemStats(&ms1)
		r.unitWall = append(r.unitWall, d)
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		if err != nil {
			r.fail("%s: %v", p.label, err)
			continue
		}
		if c["analysis.errors"] != 0 {
			r.fail("%s: verifier reported %d error(s)", p.label, c["analysis.errors"])
		}
		r.results[i] = res
		if p.twin {
			r.base += d
			twin = c
			continue
		}
		r.wall += d
		if p.parts > 1 {
			c["sim.pdes_windows"] = int64(res.PDESWindows)
			if twin != nil {
				if df := withoutPDES(c).diffOn(twin); df != "" {
					r.fail("%s: PDES run differs from its sequential twin: %s", p.label, df)
				}
			}
		}
		r.counts.add(c)
	}
	return r
}

// checkPass compares every simulated unit's final arrays with its
// reference and releases the results.
func (r *passResult) checkPass(ps []prepared) {
	for i, res := range r.results {
		if res != nil {
			if err := checkArrays(&ps[i], res); err != nil {
				r.fail("%v", err)
			}
		}
	}
	r.results = nil
}

func withoutPDES(c counts) counts {
	out := counts{}
	for k, v := range c {
		if !strings.HasPrefix(k, "sim.pdes_") {
			out[k] = v
		}
	}
	return out
}

// --- statistics ----------------------------------------------------------

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is what the benchmark driver uses for its spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
