// End-to-end tests of the causal protocol-event tracing subsystem on a
// real application: the trace must reconstruct the paper's Figure 1(a)
// eight-message chain from jacobi's sharing pattern, and the Chrome
// export must be well-formed. That a traced run simulates bit-identically to
// an untraced one is relation R2 of composes_test.go.
package hpfdsm_test

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/trace"
)

func runJacobiTraced(t *testing.T, opt compiler.Level, backend runtime.Backend) (*runtime.Result, *trace.Tracer) {
	t.Helper()
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	tr := trace.New(mc.Nodes)
	res, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: opt, Backend: backend, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestJacobiTraceEightMessageChain looks for Figure 1(a)'s chain in a
// jacobi run under the default protocol (OptNone): for some address
// whose home is a third party, the handler executions must include, in
// order, read_req, put_data_req, put_data_resp, read_resp, upgrade_req,
// inval, inval_ack, write_grant — the eight causally chained messages
// of one producer/consumer exchange.
func TestJacobiTraceEightMessageChain(t *testing.T) {
	_, tr := runJacobiTraced(t, compiler.OptNone, runtime.SharedMemory)

	chain := []string{"h:read_req", "h:put_data_req", "h:put_data_resp", "h:read_resp",
		"h:upgrade_req", "h:inval", "h:inval_ack", "h:write_grant"}
	seq := map[string][]string{}
	for _, e := range tr.Events() {
		if e.Ph != trace.PhaseSpan || e.Cat != "handler" {
			continue
		}
		for _, g := range e.Args {
			if g.K == "addr" {
				seq[g.J] = append(seq[g.J], e.Name)
			}
		}
	}
	for _, names := range seq {
		next := 0
		for _, n := range names {
			if next < len(chain) && n == chain[next] {
				next++
			}
		}
		if next == len(chain) {
			return // found the full chain on one address
		}
	}
	t.Fatalf("no address exhibits the eight-message chain (%d addresses traced)", len(seq))
}

// TestJacobiTraceNamesEveryKind traces jacobi on both backends and
// fails on any event named after a bare kind number: every kind a run
// sends, the message-passing backend's data kind included, must carry
// the name its package gave it.
func TestJacobiTraceNamesEveryKind(t *testing.T) {
	unnamed := regexp.MustCompile(`kind[0-9]`)
	for _, backend := range []runtime.Backend{runtime.SharedMemory, runtime.MessagePassing} {
		_, tr := runJacobiTraced(t, compiler.OptRTElim, backend)
		bad := map[string]int{}
		for _, e := range tr.Events() {
			if unnamed.MatchString(e.Name) {
				bad[e.Name]++
			}
		}
		if len(bad) > 0 {
			t.Errorf("%v: events named after a kind number: %v", backend, bad)
		}
	}
}

// TestJacobiTraceWellFormed validates the exported Chrome JSON: parse,
// flow-event pairing, and presence of each lane's span categories.
func TestJacobiTraceWellFormed(t *testing.T) {
	_, tr := runJacobiTraced(t, compiler.OptRTElim, runtime.SharedMemory)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			ID  int64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("jacobi trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	starts := map[int64]int{}
	ends := map[int64]int{}
	for _, e := range ct.TraceEvents {
		cats[e.Cat]++
		switch e.Ph {
		case "s":
			starts[e.ID]++
		case "f":
			ends[e.ID]++
		}
	}
	for _, want := range []string{"tx", "handler", "miss", "loop", "sync"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans in jacobi trace", want)
		}
	}
	if len(starts) == 0 {
		t.Fatal("no flow events")
	}
	for id, n := range starts {
		if n != 1 || ends[id] != 1 {
			t.Errorf("flow %d: %d starts, %d ends", id, n, ends[id])
		}
	}

	// The heat map and miss-provenance views render non-trivially.
	var heat bytes.Buffer
	tr.Heat.WriteText(&heat, tr.BlockInfo)
	if !strings.Contains(heat.String(), "A") { // jacobi's grid array
		t.Errorf("heat map does not mention jacobi's array:\n%s", heat.String())
	}
	heat.Reset()
	tr.Heat.WriteMissTable(&heat, tr.BlockInfo)
	if !strings.Contains(heat.String(), "loop") {
		t.Errorf("miss table attributes nothing to loops:\n%s", heat.String())
	}
	heat.Reset()
	if err := tr.Heat.WriteJSON(&heat); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(heat.Bytes()) {
		t.Fatal("heat JSON invalid")
	}
}
