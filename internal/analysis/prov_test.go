package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// Loop B reads every boundary column of a that loop A reads, and the
// ones on the other side as well: B's blocks are a superset of A's.
const provSrc = `
PROGRAM prov
PARAM n = 64
REAL a(n, n), b(n, n), c(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
DISTRIBUTE c(*, BLOCK)
FORALL (i = 1:n, j = 2:n)
  b(i, j) = a(i, j-1)
END FORALL
FORALL (i = 1:n, j = 2:n-1)
  c(i, j) = a(i, j-1) + a(i, j+1)
END FORALL
END
`

// TestProvIndexRepeatRecordIsIdempotent: a record equal to the one
// before it is skipped, and nothing else is — after A, A, B, A every
// block reads as if all four records had stamped in full, so A's blocks
// (which B covered in between) name loop A again.
func TestProvIndexRepeatRecordIsIdempotent(t *testing.T) {
	prog, err := lang.Parse(provSrc)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		label string
		sched *compiler.Schedule
	}
	var recs []rec
	for _, s := range prog.Body {
		pl := s.(*ir.ParLoop)
		recs = append(recs, rec{pl.Label, an.Schedule(pl, an.LoopRuleOf(pl), prog.Params)})
	}
	A, B := recs[0], recs[1]
	seq := []rec{A, A, B, A}

	// The oracle stamps every record in full, transfer by transfer.
	want := map[int]string{}
	for _, r := range seq {
		stamp := func(ts []compiler.Transfer, kind string) {
			for i := range ts {
				t := &ts[i]
				for _, br := range t.Blocks {
					for b := br.Start; b < br.Start+br.N; b++ {
						want[b] = fmt.Sprintf("loop %s: %s %s%v %d->%d", r.label, kind, t.Array.Name, t.Sec, t.Sender, t.Receiver)
					}
				}
			}
		}
		stamp(r.sched.Reads, "send")
		stamp(r.sched.Writes, "flush")
	}

	px := analysis.NewProvIndex(an)
	for _, r := range seq {
		px.RecordSchedule(r.label, r.sched)
	}
	var fromA, fromB int
	for b, text := range want {
		got := px.Describe(b)
		if !strings.HasSuffix(got, "; "+text) {
			t.Fatalf("block %d: %q, four full stamps give %q", b, got, text)
		}
		if strings.Contains(text, "loop "+A.label+":") {
			fromA++
		} else {
			fromB++
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("fixture too weak: %d block(s) end up with loop %s, %d with loop %s", fromA, A.label, fromB, B.label)
	}
}
