package trace

import (
	"strings"
	"testing"
)

// sample records one visit to label costing s, with no span to speak of.
func sample(p *Profile, label string, s Sample) {
	p.Add(Region{Span: Span{Label: label}, Sample: s})
}

// span records one node's visit to label over [start, end].
func span(p *Profile, node int, label string, start, end int64) {
	p.Add(Region{Span: Span{Node: node, Label: label, Start: start, End: end}})
}

func TestProfileAccumulates(t *testing.T) {
	p := NewProfile()
	sample(p, "sweep", Sample{Compute: 100, Comm: 50, Misses: 3})
	sample(p, "sweep", Sample{Compute: 200, Barrier: 25, Msgs: 7})
	sample(p, "copy", Sample{Compute: 10})
	e := p.Entry("sweep")
	if e == nil || e.Visits != 2 || e.Compute != 300 || e.Comm != 50 || e.Barrier != 25 {
		t.Fatalf("sweep entry = %+v", e)
	}
	if e.Misses != 3 || e.Msgs != 7 {
		t.Fatalf("sweep counters = %+v", e)
	}
	if e.Total() != 375 {
		t.Fatalf("total = %d", e.Total())
	}
	if p.Entry("nope") != nil {
		t.Fatal("missing entry should be nil")
	}
}

func TestEntriesSortedByTotal(t *testing.T) {
	p := NewProfile()
	sample(p, "small", Sample{Compute: 1})
	sample(p, "big", Sample{Compute: 1000})
	sample(p, "mid", Sample{Comm: 500})
	es := p.Entries()
	if es[0].Label != "big" || es[1].Label != "mid" || es[2].Label != "small" {
		t.Fatalf("order = %v %v %v", es[0].Label, es[1].Label, es[2].Label)
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile()
	sample(p, "sweep", Sample{Compute: 2_000_000, Misses: 42})
	s := p.String()
	if !strings.Contains(s, "sweep") || !strings.Contains(s, "42") {
		t.Fatalf("render missing fields:\n%s", s)
	}
}

func TestTimelineGantt(t *testing.T) {
	p := NewProfile()
	span(p, 0, "sweep", 0, 1000)
	span(p, 0, "copy", 1000, 2000)
	span(p, 1, "sweep", 0, 2000)
	g := p.Gantt(20)
	if !strings.Contains(g, "node  0") || !strings.Contains(g, "node  1") {
		t.Fatalf("missing rows:\n%s", g)
	}
	if !strings.Contains(g, "a=sweep") || !strings.Contains(g, "b=copy") {
		t.Fatalf("missing legend:\n%s", g)
	}
	// Node 1 is all sweep: its row should contain 'a' and no 'b'.
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(line, "node  1") {
			if strings.Contains(line, "b") || !strings.Contains(line, "a") {
				t.Fatalf("node 1 row wrong: %s", line)
			}
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	p := NewProfile()
	if g := p.Gantt(40); !strings.Contains(g, "empty") {
		t.Fatalf("empty timeline rendering: %q", g)
	}
	span(p, 0, "x", 5, 5)
	if g := p.Gantt(40); !strings.Contains(g, "empty") {
		t.Fatalf("zero-width timeline rendering: %q", g)
	}
}

func TestTimelineIdleGaps(t *testing.T) {
	p := NewProfile()
	span(p, 0, "w", 0, 100)
	span(p, 0, "w", 900, 1000)
	g := p.Gantt(10)
	row := ""
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(line, "node  0") {
			row = line
		}
	}
	if !strings.Contains(row, ".") {
		t.Fatalf("gap not shown as idle: %s", row)
	}
}

func TestWriteJSON(t *testing.T) {
	p := NewProfile()
	p.Add(Region{Span: Span{Node: 0, Label: "sweep", End: 1000}, Sample: Sample{Compute: 1000, Misses: 2}})
	var buf strings.Builder
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"label": "sweep"`, `"compute_ns": 1000`, `"misses": 2`, `"Node": 0`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json missing %s:\n%s", want, out)
		}
	}
}
