package bench

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

// PDES is the multicore scaling experiment for the conservative-PDES
// engine: every application, rtelim, swept over partition counts, with
// the wall-clock speedup over the sequential event loop reported per
// cell (best of three runs, so a stray scheduler hiccup cannot print a
// fake slowdown). Before any timing, every partitioned run is checked
// bit-identical to the sequential one — a cell in this table is a
// correctness statement first and a speed claim second. The header
// records the host's CPU budget because the speedups are wall-clock
// facts about THIS host: on a single-core runner the engine falls back
// to its inline path and the honest expectation is ~1.0x.
func PDES(cfg Config) (string, error) {
	parts := []int{1, 2, 4, 8} // the first is the sequential reference
	var cells []cell
	for _, name := range AppNames() {
		for _, p := range parts {
			cells = append(cells, cell{app: name, opts: runtime.Options{
				Machine: config.Default(), Opt: compiler.OptRTElim, Partitions: p,
			}})
		}
	}
	res, err := cfg.simulate(cells)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Multicore PDES: wall-clock speedup vs sequential event loop (rtelim, dual-cpu)\n")
	fmt.Fprintf(&b, "(host: %d CPU(s), GOMAXPROCS=%d; every cell verified bit-identical first)\n\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  %-9s %12s |", "App", "seq wall")
	for _, p := range parts[1:] {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintf(&b, " | %10s\n", "sim-ms")
	for i, a := range apps.All() {
		row, rowRes := cells[i*len(parts):][:len(parts)], res[i*len(parts):][:len(parts)]
		seq := rowRes[0]
		for j, r := range rowRes[1:] {
			if r.Elapsed != seq.Elapsed ||
				r.Stats.TotalMisses() != seq.Stats.TotalMisses() ||
				r.Stats.TotalMessages() != seq.Stats.TotalMessages() ||
				r.Stats.TotalBytes() != seq.Stats.TotalBytes() {
				return "", fmt.Errorf("%s at %d partitions diverged from sequential: elapsed %d vs %d, misses %d vs %d, msgs %d vs %d, bytes %d vs %d",
					a.Name, parts[j+1], r.Elapsed, seq.Elapsed,
					r.Stats.TotalMisses(), seq.Stats.TotalMisses(),
					r.Stats.TotalMessages(), seq.Stats.TotalMessages(),
					r.Stats.TotalBytes(), seq.Stats.TotalBytes())
			}
		}
		// The timing runs stay off the pool: a run sharing the host with
		// others would time them, not itself.
		prog, err := a.Program(ParamsFor(a, cfg.Sizing))
		if err != nil {
			return "", err
		}
		var walls []time.Duration
		for _, c := range row {
			best := time.Duration(0)
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				if _, err := runtime.Run(prog, c.opts); err != nil {
					return "", err
				}
				if d := time.Since(t0); best == 0 || d < best {
					best = d
				}
			}
			walls = append(walls, best)
		}
		fmt.Fprintf(&b, "  %-9s %12s |", a.Name, walls[0].Round(time.Microsecond))
		for _, w := range walls[1:] {
			fmt.Fprintf(&b, " %7.2fx", float64(walls[0])/float64(w))
		}
		fmt.Fprintf(&b, " | %10.2f\n", ms(seq.Elapsed))
	}
	return b.String(), nil
}
