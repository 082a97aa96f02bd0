// Command benchmark is the repository's benchmark: six workloads that
// each load a different layer of the simulator, end-to-end host metrics
// measured with tracing off, per-layer kernels, and a traced run. See
// README.md in this directory; BENCHMARK.json at the repository root
// names the workloads and metrics for the driver.
//
// With -workload it measures that one workload in this process and
// prints the result as the last line of standard output. Without, it
// re-executes itself once per workload and trace mode and prints every
// metric by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// scratchDir holds what a run leaves behind (profiles, traces). run.sh
// builds into the same directory; .gitignore names it.
const scratchDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	expected string // file overriding the embedded expected.json
	update   bool   // rewrite the expected file from this run
	traceDir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit, for the
// smoke test.
func run(args []string, stdout, stderr io.Writer) int {
	started := time.Now()
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "measure this one workload in this process (the driver's protocol); default: all, one child process each")
	seed := fs.Int64("seed", 1, "generates the inputs: storm.hpf's coefficients, the fault seed, the crash node and epoch")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed passes of one run measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (kernels, traced pass, profiled passes)")
	fs.BoolVar(&o.smoke, "smoke", false, "scaled problem sizes and single passes, for the smoke test; numbers are not comparable")
	fs.StringVar(&o.expected, "expected", "", "read (and with -update-expected write) the exact simulated stats here instead of the built-in expected.json")
	fs.BoolVar(&o.update, "update-expected", false, "rewrite the expected stats from this run (seed 1, -trace 1); the only way they change")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(scratchDir, "trace"), "where -trace 1 writes the harness spans as Chrome-trace JSON")
	layers := fs.Bool("layers", false, "run only the per-layer kernels")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as metrics.go and workloads.go define it")
	selfcheck := fs.Bool("selfcheck", false, "run the default set twice; fail unless set 2 is within every bound of set 1")
	out := fs.String("out", "", "also write the JSON document here (all-workloads mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q or -trace %d (0 or 1)\n", fs.Arg(0), o.trace)
		return 2
	}
	o.seed = uint64(*seed)
	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), 4))

	correct, err := true, error(nil)
	switch {
	case *manifest:
		err = writeManifest(stdout)
	case *layers:
		var m map[string]float64
		var vals map[string]value
		if m, err = runKernels(o.smoke); err != nil {
			break
		}
		if vals, err = fill(kernelDefs, m); err != nil {
			break
		}
		table(stderr, vals)
		err = json.NewEncoder(stdout).Encode(vals)
	case o.workload != "":
		var res result
		if res, err = runWorkload(o, started, stderr); err != nil {
			break
		}
		table(stderr, res.Metrics)
		correct, err = res.Correct, res.writeLine(stdout)
	case *selfcheck:
		err = selfCheck(o, stderr)
	default:
		var doc *document
		if doc, err = runAll(o, stderr); err != nil {
			break
		}
		doc.print(stderr)
		correct, err = doc.correct(), doc.write(stdout, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// --- all-workloads mode ----------------------------------------------------

// document is what the all-workloads mode prints: every metric of every
// workload, with the host it was measured on.
type document struct {
	GoVersion  string                       `json:"go_version"`
	NumCPU     int                          `json:"num_cpu"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Seed       uint64                       `json:"seed"`
	Seconds    float64                      `json:"seconds"`
	Workloads  map[string]map[string]result `json:"workloads"` // name -> "end_to_end" | "per_layer"
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		for _, r := range w {
			if !r.Correct {
				return false
			}
		}
	}
	return true
}

func (d *document) print(f io.Writer) {
	fmt.Fprintf(f, "\n%s, %d CPU(s), GOMAXPROCS %d, seed %d, %g s per run\n", d.GoVersion, d.NumCPU, d.GOMAXPROCS, d.Seed, d.Seconds)
	for _, w := range workloads {
		for _, mode := range []string{"end_to_end", "per_layer"} {
			r, ok := d.Workloads[w.name][mode]
			if !ok {
				continue
			}
			fmt.Fprintf(f, "\n%s, %s: %d run(s) attempted, %d failed (failed_share %g)\n",
				w.name, mode, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
			table(f, r.Metrics)
		}
	}
}

func (d *document) write(stdout io.Writer, path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := stdout.Write(b); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	return os.WriteFile(path, b, 0o644)
}

// runAll measures every workload in a child process of its own, first
// untraced and then traced, so that setup_s and peak_rss_mb belong to
// one workload and tracing never touches an end-to-end number. With
// -update-expected only the traced runs are made: they alone measure
// every recorded statistic, and the untraced ones would compare against
// the copy of expected.json this binary was built with.
func runAll(o options, stderr io.Writer) (*document, error) {
	doc := &document{GoVersion: goruntime.Version(), NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Workloads: map[string]map[string]result{}}
	for _, w := range workloads {
		doc.Workloads[w.name] = map[string]result{}
		for tr, mode := range []string{"end_to_end", "per_layer"} {
			if o.update && tr == 0 {
				continue
			}
			c := o
			c.workload, c.trace = w.name, tr
			res, err := runChild(c, stderr)
			if err != nil {
				return nil, fmt.Errorf("%s (-trace %d): %w", w.name, tr, err)
			}
			doc.Workloads[w.name][mode] = res
		}
	}
	return doc, nil
}

// runChild re-executes this binary for one workload and parses the
// result line; the child's own table goes to this process's stderr. A
// child that measured but found wrong outputs exits 1 after printing
// its result; that result is returned, marked incorrect.
func runChild(o options, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-trace-dir", o.traceDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.expected != "" {
		args = append(args, "-expected", o.expected)
	}
	if o.update {
		args = append(args, "-update-expected")
	}
	fmt.Fprintf(stderr, "\n== %s -trace %d\n", o.workload, o.trace)
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	outb, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// selfCheck runs the default set twice and compares set 2 with set 1:
// every end-to-end metric within its bound, every exact per-layer count
// identical. It prints the observed differences, so that a bound that
// is too tight is corrected with the evidence.
func selfCheck(o options, stderr io.Writer) error {
	var docs [2]*document
	for i := range docs {
		d, err := runAll(o, stderr)
		if err != nil {
			return err
		}
		if !d.correct() {
			return fmt.Errorf("set %d: a workload failed its checks", i+1)
		}
		docs[i] = d
	}
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := docs[0].Workloads[w.name]["end_to_end"].Metrics[d.Name].Value, docs[1].Workloads[w.name]["end_to_end"].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(stderr, "%-16s %-18s %12.6g -> %12.6g  %+6.2f%% (bound %g%%) %s\n",
				w.name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		a, b := docs[0].Workloads[w.name]["per_layer"].Metrics, docs[1].Workloads[w.name]["per_layer"].Metrics
		names := make([]string, 0, len(exactMetrics))
		for n := range exactMetrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if a[n].Value != b[n].Value {
				fmt.Fprintf(stderr, "%-16s %-18s %v != %v  EXACT METRIC DIFFERS\n", w.name, n, a[n].Value, b[n].Value)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", bad)
	}
	fmt.Fprintln(stderr, "selfcheck: two sets of runs agree within every bound")
	return nil
}
