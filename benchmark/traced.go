package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"hpfdsm/internal/stats"
	"hpfdsm/internal/trace"
)

// spans records the harness's own view of a traced pass: one span per
// call into a layer, kept in memory and written out when the run ends.
// A nil *spans records nothing, which is how the timed passes run.
type spans struct {
	pass  int // identifier shared by every span of the pass
	t0    time.Time
	all   []span
	stack []int // indices of the open spans, innermost last
}

type span struct {
	name       string
	parent     int // index into all, -1 for the root
	start, end time.Duration
	children   time.Duration // time covered by child spans
}

func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.stack = append(s.stack, len(s.all))
	s.all = append(s.all, span{name: name, parent: parent, start: time.Since(s.t0)})
}

func (s *spans) end() {
	if s == nil {
		return
	}
	i := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	sp := &s.all[i]
	sp.end = time.Since(s.t0)
	if sp.parent >= 0 {
		s.all[sp.parent].children += sp.end - sp.start
	}
}

// self sums, by span name, each span's duration minus the part of it
// its child spans cover.
func (s *spans) self() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, sp := range s.all {
		out[sp.name] += sp.end - sp.start - sp.children
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing).
func (s *spans) writeChrome(path, workload string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, len(s.all))
	for i, sp := range s.all {
		evs[i] = ev{Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(sp.start.Nanoseconds()) / 1e3, Dur: float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"workload": workload, "pass": s.pass, "span": i, "parent": sp.parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traced is what the two extra passes of a -trace 1 run give.
type traced struct {
	pass    passResult
	metrics map[string]float64
}

// tracedRun makes the traced pass (simulator tracer and per-loop
// profile on, harness spans around parse, analyse, verify, simulate and
// check) and then the profiled passes (runtime/pprof around plain
// passes). Neither contributes to an end-to-end metric. wall is the
// untraced median the overhead is measured against.
func tracedRun(o options, name string, units []unit, ps []prepared, wall float64) (*traced, error) {
	sp := &spans{pass: 1, t0: time.Now()}
	tp := &traced{pass: passResult{counts: counts{}}, metrics: map[string]float64{}}
	r := &tp.pass
	var cluster stats.Cluster
	var twinCensus counts
	var handoffs uint64
	sp.begin("pass")
	for i := range units {
		p := prepared{unit: units[i]}
		r.attempted++
		prog, rep, err := frontEnd(p.unit, p.verify, sp)
		if err != nil {
			r.fail("%s: %v", p.label, err)
			continue
		}
		c := verifyCounts(rep)
		if rep.HasErrors() {
			r.fail("%s: verifier reported %d error(s)", p.label, rep.Errors())
		}
		if !p.verify {
			p.prog, p.want = prog, ps[i].want
			var tr *trace.Tracer
			if p.parts <= 1 { // the tracer refuses PDES; its sequential twin carries the census
				tr = trace.New(p.mc.Nodes)
			}
			sp.begin("simulate")
			res, err := simulate(&p, tr)
			sp.end()
			if err != nil {
				r.fail("%s: %v", p.label, err)
				continue
			}
			c.add(simCounts(res))
			sp.begin("check")
			if err := checkArrays(&p, res); err != nil {
				r.fail("%v", err)
			}
			sp.end()
			if p.twin {
				twinCensus = census(tr)
				continue // the twin's statistics are its partner's, not the pass's
			}
			if tr != nil {
				c.add(census(tr))
			}
			if p.parts > 1 {
				c["sim.pdes_windows"] = int64(res.PDESWindows)
				handoffs = res.PDESHandoffs
				c.add(twinCensus)
			}
			cluster.Nodes = append(cluster.Nodes, res.Stats.Nodes...)
		}
		r.counts.add(c)
	}
	sp.end()
	if err := sp.writeChrome(filepath.Join(o.traceDir, name+".json"), name); err != nil {
		return nil, err
	}

	m := tp.metrics
	self := sp.self()
	// Every part-B metric that is a count reads 0 on a workload that has
	// none of it; the derived ones are overwritten below.
	for _, d := range tracedDefs {
		m[d.Name] = float64(r.counts[d.Name])
	}
	m["sim.pdes_handoffs"] = float64(handoffs)
	m["sim_ms"] = float64(r.counts["sim_ns"]) / 1e6
	m["network.wire_kb"] = float64(r.counts["network.wire_bytes"]) / 1024
	m["checkpoint.kb"] = float64(r.counts["checkpoint.bytes"]) / 1024
	if ev := r.counts["sim.events"]; ev > 0 {
		m["sim.host_ns_per_event"] = wall * 1e9 / float64(ev)
	}
	for _, stage := range []string{"parse", "analyse", "verify", "simulate", "check"} {
		m["span."+stage+"_s"] = self[stage].Seconds()
	}
	// Fig. 4's axes: where the simulated nodes' time went.
	var compute, comm, barrier float64
	for i := range cluster.Nodes {
		n := &cluster.Nodes[i]
		compute += float64(n.ComputeTime)
		comm += float64(n.CommTime)
		barrier += float64(n.BarrierTime)
	}
	total := max(compute+comm+barrier, 1)
	m["stats.compute_share"], m["stats.comm_share"], m["stats.barrier_share"] = 100*compute/total, 100*comm/total, 100*barrier/total
	// The traced pass's counterpart of wall_s is what it spent in the
	// stages a timed pass also runs.
	tracedWall := self["simulate"]
	if tracedWall == 0 {
		tracedWall = self["parse"] + self["analyse"] + self["verify"]
	}
	m["trace.overhead_pct"] = 100 * (tracedWall.Seconds()/wall - 1)

	cpu, err := profiledPasses(name, ps, o.smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range cpu {
		m[k] = v
	}
	return tp, nil
}

// census reads the exact event counts out of a finished simulator
// trace: the sim.events instant the runtime closes the record with,
// handler executions (spans on the protocol lane) and node 0's
// synchronization episodes.
func census(tr *trace.Tracer) counts {
	c := counts{}
	for _, e := range tr.Events() {
		switch {
		case e.Ph == trace.PhaseInstant && e.Name == "sim.events":
			for _, a := range e.Args {
				v, _ := strconv.ParseInt(a.J, 10, 64)
				switch a.K {
				case "total":
					c["sim.events"] += v
				case "dispatches", "arg_events", "fn_events":
					c["sim."+a.K] += v
				}
			}
		case e.Ph == trace.PhaseSpan && e.Cat == "handler":
			c["tempest.handlers"]++
		case e.Ph == trace.PhaseSpan && e.Cat == "sync" && e.Pid == 0:
			c["tempest.barriers"]++
		}
	}
	return c
}

// --- host attribution ------------------------------------------------------

// cpuLayers maps a package to its cpu.* row.
var cpuLayers = []struct {
	metric string
	pkgs   []string
}{
	{"cpu.runtime", []string{"runtime"}},
	{"cpu.memory", []string{"memory"}},
	{"cpu.sim", []string{"sim"}},
	{"cpu.tempest", []string{"tempest", "topo"}},
	{"cpu.protocol", []string{"protocol"}},
	{"cpu.network", []string{"network"}},
	{"cpu.frontend", []string{"lang", "ir", "compiler", "sections", "distribute", "analysis"}},
	{"cpu.checkpoint", []string{"checkpoint"}},
	{"cpu.trace", []string{"trace", "stats"}},
}

// Work the Go runtime does on its own account is recognised by the
// function it stems from: everything the collector does hangs below one
// of gcMarkers, every goroutine hand-off (the sim.Proc coroutine switch,
// the PDES barrier's park and wake) below one of schedMarkers.
var (
	gcMarkers = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim", "runtime.markroot", "runtime.wbBufFlush"}
	schedMarkers = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.mstart", "runtime.goexit",
		"runtime.gosched_m", "runtime.Gosched", "runtime.newproc", "runtime.wakep", "runtime.findRunnable",
		"runtime.semacquire", "runtime.semrelease", "runtime.notesleep", "runtime.notewakeup", "runtime.morestack"}
)

// bucketOf gives the cpu.* row of one stack frame, or "" when the frame
// decides nothing and the caller's frame should be asked.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hpfdsm/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range cpuLayers {
			if slices.Contains(l.pkgs, pkg) {
				return l.metric
			}
		}
		return ""
	}
	for _, m := range gcMarkers {
		if strings.HasPrefix(fn, m) {
			return "cpu.go_gc"
		}
	}
	for _, m := range schedMarkers {
		if strings.HasPrefix(fn, m) {
			return "cpu.go_sched"
		}
	}
	return ""
}

// profiledPasses runs plain passes under runtime/pprof and attributes
// every CPU sample to one cpu.* row with `go tool pprof -traces`.
func profiledPasses(name string, ps []prepared, smoke bool) (map[string]float64, error) {
	dir := filepath.Join(scratchDir, "prof")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	// Two passes, so that a one-second pass still leaves a few hundred samples.
	passes := 2
	if smoke {
		passes = 1
	}
	for i := 0; i < passes; i++ {
		runPass(ps)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return bucketTraces(out)
}

// bucketTraces parses `pprof -traces` text. Samples are separated by
// rule lines; a sample's first line is its value and its innermost
// frame, the following lines walk out to the root. A sample belongs to
// the innermost frame that bucketOf recognises, so that a memmove or an
// allocation counts for the layer that asked for it; a sample no frame
// claims is cpu.other. The rows are shares of all samples and sum to 100.
func bucketTraces(traces []byte) (map[string]float64, error) {
	share := map[string]float64{"cpu.other": 0, "cpu.go_gc": 0, "cpu.go_sched": 0}
	for _, l := range cpuLayers {
		share[l.metric] = 0
	}
	var total, value float64
	bucket, open := "", false
	flush := func() {
		if open {
			if bucket == "" {
				bucket = "cpu.other"
			}
			share[bucket] += value
			total += value
		}
		bucket, open = "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(nil, 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			started = true
			continue
		}
		f := strings.Fields(line)
		if !started || len(f) == 0 {
			continue
		}
		if !open {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces line %q: %w", line, err)
			}
			value, open, f = d.Seconds(), true, f[1:]
		}
		if bucket == "" && len(f) > 0 {
			bucket = bucketOf(f[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile holds no samples")
	}
	for k := range share {
		share[k] = 100 * share[k] / total
	}
	return share, nil
}
