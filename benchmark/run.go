package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"time"
)

const (
	// setupReps is how often a -trace 0 run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest timed passes a -trace 0 run reports a median of.
	minPasses = 7
)

// runWorkload measures one workload in this process. Closed loop, one
// client: set up (parse, analysis, reference, one checked warm pass),
// then timed passes back to back for o.seconds. Every set-up and every
// pass is bracketed by the calibration kernel, and wall_s and setup_s
// are medians of the drift-corrected durations (calibrate.go). With
// -trace 1 the timed passes only size the traced run (half the time);
// the traced pass, the profiled passes and the kernels follow them and
// give the per-layer metrics.
func runWorkload(o options, started time.Time, stderr io.Writer) (result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	units := w.units(o.seed, o.smoke)
	procs := 1
	for _, u := range units {
		if u.parts > goruntime.GOMAXPROCS(0) {
			return result{}, fmt.Errorf("%s needs %d CPUs for its %d-partition run; this host offers %d: no number is reported",
				w.name, u.parts, u.parts, goruntime.GOMAXPROCS(0))
		}
		procs = max(procs, u.parts)
	}
	// The sequential engine is one thread of control handed from
	// coroutine to coroutine. A second P only lets the Go scheduler move
	// the woken goroutine to another thread, and on a shared host the
	// cross-CPU wake-up is the largest source of pass-to-pass noise
	// (miss_storm: passes within 2 % on one P, within 10 % on two, and
	// 15 % slower). So a workload runs on as many Ps as its engine uses:
	// one, or the partition count. The kernels get the host's Ps back.
	hostProcs := goruntime.GOMAXPROCS(procs)
	exp, err := loadExpected(o)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stderr, "%s: %s, %d CPU(s), GOMAXPROCS %d, seed %d\n",
		w.name, goruntime.Version(), goruntime.NumCPU(), goruntime.GOMAXPROCS(0), o.seed)

	res := result{}
	note := func(r passResult, what string) {
		res.Attempted += r.attempted
		res.Failed += min(len(r.failures), r.attempted)
		for _, f := range r.failures {
			fmt.Fprintf(stderr, "FAILED (%s): %s\n", what, f)
		}
	}

	// Set-up. The first repetition also carries the process's own start.
	reps := setupReps
	if o.trace == 1 || o.smoke {
		reps = 1
	}
	var ps []prepared
	var warm passResult
	var setups []time.Duration
	var setupsCorr []float64
	sinceStart := time.Since(started)
	dr := newDrift()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if ps, err = prepare(units); err != nil {
			return result{}, err
		}
		warm = runPass(ps)
		warm.checkPass(ps)
		d := time.Since(t0)
		if i == 0 {
			d += sinceStart
		}
		setups, setupsCorr = append(setups, d), append(setupsCorr, dr.correct(d))
		note(warm, "warm pass")
	}

	// Timed passes. Every one must reproduce the warm pass's simulated
	// statistics bit for bit; the last one is checked against the
	// reference arrays again.
	budget := time.Duration(o.seconds * float64(time.Second))
	need := minPasses
	if o.trace == 1 {
		budget, need = budget/2, 3
	}
	if o.smoke {
		need = 1
	}
	var walls, bases []time.Duration
	var wallsCorr, mallocs, allocMB []float64
	var r passResult
	begin := time.Now()
	for len(walls) < need || time.Since(begin) < budget {
		r = passResult{} // release the previous pass before the next one allocates
		r = runPass(ps)
		if df := r.counts.diffOn(warm.counts); df != "" && len(r.failures) == 0 {
			r.fail("differs from the warm pass: %s", df)
		}
		walls, bases, wallsCorr = append(walls, r.wall), append(bases, r.base), append(wallsCorr, dr.correct(r.wall))
		mallocs = append(mallocs, float64(r.mallocs))
		allocMB = append(allocMB, float64(r.allocBytes)/(1<<20))
		if len(walls) >= need && time.Since(begin) >= budget {
			r.checkPass(ps)
		}
		r.results = nil
		note(r, fmt.Sprintf("pass %d", len(walls)))
	}
	wall := median(seconds(walls))
	q1, q3 := quartiles(wallsCorr)
	fmt.Fprintf(stderr, "wall_s median %.4f, quartiles %.4f..%.4f, %d timed passes %.4f; set-up %.4f\n",
		median(wallsCorr), q1, q3, len(walls), wallsCorr, setupsCorr)
	fmt.Fprintf(stderr, "before drift correction: median %.4f, passes %.4f; set-up %.4f\n", wall, seconds(walls), seconds(setups))
	for i, d := range r.unitWall {
		fmt.Fprintf(stderr, "  last pass, %-14s %v\n", ps[i].label, d)
	}

	exact := counts{}
	exact.add(warm.counts)
	got := map[string]float64{}
	if o.trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		got["wall_s"] = median(wallsCorr)
		got["setup_s"] = median(setupsCorr)
		got["allocs_per_pass"] = median(mallocs)
		got["alloc_mb_per_pass"] = median(allocMB)
		got["peak_rss_mb"] = rss
	} else {
		speedup := 0.0
		if warm.base > 0 {
			ratios := make([]float64, len(walls))
			for i := range walls {
				ratios[i] = bases[i].Seconds() / walls[i].Seconds()
			}
			speedup = median(ratios)
		}
		tp, err := tracedRun(o, w.name, units, ps, wall)
		if err != nil {
			return result{}, err
		}
		note(tp.pass, "traced pass")
		if df := warm.counts.diffOn(tp.pass.counts); df != "" {
			res.Failed++
			fmt.Fprintf(stderr, "FAILED (traced pass): simulated statistics differ from the untraced pass: %s\n", df)
		}
		exact = tp.pass.counts
		for k, v := range tp.metrics {
			got[k] = v
		}
		got["speedup_p2"] = speedup
		goruntime.GOMAXPROCS(hostProcs)
		km, err := runKernels(o.smoke)
		if err != nil {
			return result{}, err
		}
		for k, v := range km {
			got[k] = v
		}
		// The kernels that reproduce a published number are exact too.
		exact["kernel.fig1_msgs_default"] = int64(km["protocol.fig1_msgs_default"])
		exact["kernel.fig1_msgs_direct"] = int64(km["protocol.fig1_msgs_direct"])
		exact["kernel.readmiss_sim_ns"] = int64(math.Round(1e3 * km["protocol.readmiss_sim_us"]))
	}

	// The golden comparison: at seed 1 and full size the simulated
	// statistics are a property of the commit, not of the run.
	switch {
	case o.update:
		if err := exp.update(o, w.name, exact); err != nil {
			return result{}, err
		}
	case exp.applies(o):
		want, ok := exp.stats[w.name]
		if !ok {
			res.Failed++
			fmt.Fprintf(stderr, "FAILED: no expected stats for %s; run with -update-expected\n", w.name)
		} else if df := exact.diffOn(want); df != "" {
			res.Failed++
			fmt.Fprintf(stderr, "FAILED: simulated statistics differ from expected.json: %s\n", df)
		}
	}

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	if res.Metrics, err = fill(defs, got); err != nil {
		return result{}, err
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}
