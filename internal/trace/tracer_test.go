package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hpfdsm/internal/sim"
)

// chromeEvent mirrors the JSON keys WriteChrome emits, for validation.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	ID   int64           `json:"id"`
	BP   string          `json:"bp"`
	Args json.RawMessage `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func decodeChrome(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v", err)
	}
	return ct
}

func TestNewEmitsLaneMetadata(t *testing.T) {
	tr := New(2)
	ct := decodeChrome(t, tr)
	// 2 nodes x (1 process_name + 3 lanes x 2 records).
	if want := 2 * (1 + 3*2); len(ct.TraceEvents) != want {
		t.Fatalf("got %d metadata events, want %d", len(ct.TraceEvents), want)
	}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" {
			t.Fatalf("unexpected non-metadata event %+v", e)
		}
		if e.Name == "thread_name" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			names[args.Name] = true
		}
	}
	for _, lane := range []string{"compute", "protocol", "nic"} {
		if !names[lane] {
			t.Errorf("no thread_name metadata for lane %q", lane)
		}
	}
}

func TestTimestampRendering(t *testing.T) {
	tr := New(1)
	tr.Span(0, LaneCompute, "work", "c", 1234567, 1240069)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 1234567 ns is exactly 1234.567 us; duration 5502 ns is 5.502 us.
	if !strings.Contains(out, `"ts":1234.567`) {
		t.Errorf("fixed-point ts missing:\n%s", out)
	}
	if !strings.Contains(out, `"dur":5.502`) {
		t.Errorf("fixed-point dur missing:\n%s", out)
	}
}

func TestSpanClampsReversedInterval(t *testing.T) {
	tr := New(1)
	tr.Span(0, LaneNIC, "odd", "c", 100, 50)
	ev := tr.Events()[len(tr.Events())-1]
	if ev.Dur != 0 {
		t.Fatalf("reversed interval produced dur %d, want 0", ev.Dur)
	}
	if ev.Ts != 100 {
		t.Fatalf("reversed interval moved ts to %d", ev.Ts)
	}
}

func TestFlowIDsAreUniqueAndNonZero(t *testing.T) {
	tr := New(1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := tr.FlowID()
		if id == 0 {
			t.Fatal("FlowID returned 0 (reserved for no-flow)")
		}
		if seen[id] {
			t.Fatalf("duplicate flow id %d", id)
		}
		seen[id] = true
	}
}

func TestFlowEventsRoundTrip(t *testing.T) {
	tr := New(2)
	id := tr.FlowID()
	tr.Span(0, LaneNIC, "read_req", "tx", 10, 20)
	tr.FlowStart(0, LaneNIC, id, 10)
	tr.Span(1, LaneProto, "h:read_req", "handler", 30, 40)
	tr.FlowEnd(1, LaneProto, id, 30)
	ct := decodeChrome(t, tr)
	var s, f *chromeEvent
	for i := range ct.TraceEvents {
		e := &ct.TraceEvents[i]
		switch e.Ph {
		case "s":
			s = e
		case "f":
			f = e
		}
	}
	if s == nil || f == nil {
		t.Fatal("flow start/end missing from output")
	}
	if s.ID != f.ID {
		t.Fatalf("flow ids differ: s=%d f=%d", s.ID, f.ID)
	}
	if f.BP != "e" {
		t.Fatalf("flow end binding point %q, want \"e\"", f.BP)
	}
	if s.Cat != "flow" || f.Cat != "flow" || s.Name != "msg" {
		t.Fatalf("flow naming wrong: %+v %+v", s, f)
	}
}

func TestOpenLoopAttributesMisses(t *testing.T) {
	tr := New(2)
	tr.MissSpan(0, 4, 512, "read", 2, 8)
	tr.BeginLoop(0, "loop A")
	tr.BeginLoop(1, "loop B")
	tr.MissSpan(0, 5, 640, "read", 12, 20)
	tr.MissSpan(1, 6, 768, "write", 14, 22)
	tr.EndLoop(Span{Node: 0, Label: "loop A", Start: 10, End: 30})
	tr.MissSpan(0, 7, 896, "read", 32, 36)
	tr.EndLoop(Span{Node: 1, Label: "loop B", Start: 10, End: 40})

	// Each EndLoop recorded its loop span as it closed.
	var loops []Event
	for _, e := range tr.Events() {
		if e.Cat == "loop" {
			loops = append(loops, e)
		}
	}
	if len(loops) != 2 || loops[0].Name != "loop A" || loops[0].Pid != 0 || loops[0].Dur != 20 ||
		loops[1].Name != "loop B" || loops[1].Pid != 1 || loops[1].Dur != 30 {
		t.Fatalf("loop spans = %+v", loops)
	}

	// Each miss went to its own node's open loop, or to none.
	var buf bytes.Buffer
	if err := tr.Heat.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"loop":"","array":"","kind":"read","count":2,"example_block":4}`,
		`{"loop":"loop A","array":"","kind":"read","count":1,"example_block":5}`,
		`{"loop":"loop B","array":"","kind":"write","count":1,"example_block":6}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %s:\n%s", want, buf.String())
		}
	}
}

func TestEndLoopPanicsWhenNoneOpen(t *testing.T) {
	tr := New(2)
	tr.BeginLoop(1, "loop B")
	defer func() {
		if recover() == nil {
			t.Fatal("EndLoop with no open loop did not panic")
		}
	}()
	tr.EndLoop(Span{Node: 0, Label: "loop B"})
}

func TestMissSpanCarriesProvenance(t *testing.T) {
	tr := New(1)
	tr.BlockInfo = func(b int) string {
		if b == 5 {
			return "x(1:8) owner=2"
		}
		return ""
	}
	tr.MissSpan(0, 5, 640, "upgrade", 0, 10)
	tr.MissSpan(0, 6, 768, "read", 20, 30)
	ct := decodeChrome(t, tr)
	var miss []chromeEvent
	for _, e := range ct.TraceEvents {
		if e.Cat == "miss" {
			miss = append(miss, e)
		}
	}
	if len(miss) != 2 {
		t.Fatalf("got %d miss spans", len(miss))
	}
	if miss[0].Name != "miss:upgrade" {
		t.Fatalf("miss span name %q", miss[0].Name)
	}
	if !strings.Contains(string(miss[0].Args), "x(1:8) owner=2") {
		t.Fatalf("provenance missing from args: %s", miss[0].Args)
	}
	if strings.Contains(string(miss[1].Args), "prov") {
		t.Fatalf("empty provenance should be omitted: %s", miss[1].Args)
	}
}

func TestWriteChromeByteStableAndSorted(t *testing.T) {
	build := func() *Tracer {
		tr := New(2)
		tr.Span(1, LaneProto, "b", "c", 50, 60)
		tr.Span(0, LaneCompute, "a", "c", 10, 20)
		tr.Instant(0, LaneCompute, "i", "c", 5)
		id := tr.FlowID()
		tr.FlowStart(0, LaneNIC, id, 12)
		tr.FlowEnd(1, LaneProto, id, 50)
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical runs produced different bytes")
	}

	ct := decodeChrome(t, build())
	metaDone := false
	lastTs := -1.0
	for _, e := range ct.TraceEvents {
		if e.Ph == "M" {
			if metaDone {
				t.Fatal("metadata event after timestamped events")
			}
			continue
		}
		metaDone = true
		if e.Ts < lastTs {
			t.Fatalf("timestamps not sorted: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
}

// TestWriteChromeLarge drives the writer past its internal flush
// threshold to cover the buffered path.
func TestWriteChromeLarge(t *testing.T) {
	tr := New(1)
	for i := 0; i < 5000; i++ {
		ts := sim.Time(i) * 1000
		tr.Span(0, LaneProto, "h:read_req", "handler", ts, ts+100,
			Int("src", i%8), Int("addr", i*128))
	}
	ct := decodeChrome(t, tr)
	spans := 0
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 5000 {
		t.Fatalf("got %d spans, want 5000", spans)
	}
}
