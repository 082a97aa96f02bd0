package compiler

import (
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/sections"
)

// buildLayouts places the arrays as the runtime does.
func buildLayouts(arrs []*ir.Array) map[*ir.Array]sections.Layout {
	_, out := Place(&ir.Program{Arrays: arrs}, config.Default())
	return out
}

// jacobiProg builds the canonical 2-array stencil: b(i,j) = avg of a's
// four neighbours, then a = b.
func jacobiProg(n int) (*ir.Program, *ir.ParLoop, *ir.ParLoop) {
	A := &ir.Array{Name: "a", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	B := &ir.Array{Name: "b", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	i, j := ir.V("i"), ir.V("j")
	sweep := &ir.ParLoop{
		Label:   "sweep",
		Indexes: []ir.Index{ir.Idx("i", ir.Aff(2), ir.Aff(n-1)), ir.Idx("j", ir.Aff(2), ir.Aff(n-1))},
		Body: []*ir.Assign{{
			LHS: ir.Ref(B, i, j),
			RHS: ir.Times(ir.N(0.25), ir.Sum4(
				ir.Ref(A, i.AddC(-1), j), ir.Ref(A, i.AddC(1), j),
				ir.Ref(A, i, j.AddC(-1)), ir.Ref(A, i, j.AddC(1)))),
		}},
	}
	copyBack := &ir.ParLoop{
		Label:   "copy",
		Indexes: []ir.Index{ir.Idx("i", ir.Aff(2), ir.Aff(n-1)), ir.Idx("j", ir.Aff(2), ir.Aff(n-1))},
		Body:    []*ir.Assign{{LHS: ir.Ref(A, i, j), RHS: ir.Ref(B, i, j)}},
	}
	prog := &ir.Program{
		Name:   "jacobi",
		Params: map[string]int{"n": n},
		Arrays: []*ir.Array{A, B},
		Body: []ir.Stmt{
			&ir.SeqLoop{Var: "t", Lo: ir.Aff(1), Hi: ir.Aff(10), Body: []ir.Stmt{sweep, copyBack}},
		},
	}
	return prog, sweep, copyBack
}

func TestJacobiAnalysis(t *testing.T) {
	const n, np = 64, 4
	prog, sweep, _ := jacobiProg(n)
	a, err := New(prog, np, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.LoopRuleOf(sweep)
	if rule == nil {
		t.Fatal("no rule for sweep")
	}
	if rule.DistVar != "j" {
		t.Fatalf("distvar = %q", rule.DistVar)
	}
	// Reads: a(i,j-1) and a(i,j+1) communicate; a(i±1,j) are aligned
	// row shifts (no comm since j matches and dist is identical).
	if len(rule.Reads) != 2 {
		t.Fatalf("read rules = %d: %+v", len(rule.Reads), rule.Reads)
	}
	for _, rr := range rule.Reads {
		if rr.Kind != KindShift {
			t.Fatalf("read rule kind = %v", rr.Kind)
		}
	}
	if len(rule.Writes) != 0 {
		t.Fatalf("write rules = %d", len(rule.Writes))
	}
	if len(rule.UsedSym) != 0 {
		t.Fatalf("jacobi schedule should be symbol-free, uses %v", rule.UsedSym)
	}
}

func TestJacobiPartition(t *testing.T) {
	const n, np = 64, 4
	prog, sweep, _ := jacobiProg(n)
	a, _ := New(prog, np, buildLayouts(prog.Arrays), 128)
	rule := a.LoopRuleOf(sweep)
	env := map[string]int{"n": n, "t": 1}
	pt := a.Partition(sweep, rule, env)
	// Chunk = 16: proc 0 owns cols 1..16 but the loop runs 2..63.
	want := [][2]int{{2, 16}, {17, 32}, {33, 48}, {49, 63}}
	for p := 0; p < np; p++ {
		if len(pt.Ranges[p]) != 1 || pt.Ranges[p][0] != want[p] {
			t.Fatalf("proc %d ranges = %v, want %v", p, pt.Ranges[p], want[p])
		}
	}
}

func TestJacobiSchedule(t *testing.T) {
	const n, np = 64, 4
	prog, sweep, _ := jacobiProg(n)
	a, _ := New(prog, np, buildLayouts(prog.Arrays), 128)
	rule := a.LoopRuleOf(sweep)
	env := map[string]int{"n": n, "t": 1}
	s := a.Schedule(sweep, rule, env)

	// Boundary exchange: each interior processor receives its left
	// neighbour's last column and right neighbour's first column; the
	// edge processors receive one each. Total = 2*(np-1) transfers.
	if len(s.Reads) != 2*(np-1) {
		t.Fatalf("read transfers = %d, want %d: %v", len(s.Reads), 2*(np-1), s.Reads)
	}
	for _, tr := range s.Reads {
		if tr.Sec.Dims[1].Count() != 1 {
			t.Fatalf("transfer spans %d columns, want 1: %v", tr.Sec.Dims[1].Count(), tr)
		}
		if tr.Sec.Dims[0] != (sections.Dim{Lo: 2, Hi: n - 1}) {
			t.Fatalf("row range = %v, want stencil rows 2..%d", tr.Sec.Dims[0], n-1)
		}
		// Rows 2..63 of one column: 496 bytes starting 8 bytes into a
		// 512-byte column; the block-aligned interior is [128,384) = 2
		// blocks, with 240 bytes of edges for the default protocol.
		if tr.NumBlocks != 2 || tr.EdgeBytes != 240 {
			t.Fatalf("blocks=%d edge=%d, want 2/240: %v", tr.NumBlocks, tr.EdgeBytes, tr)
		}
	}
	// Memoization: same env -> same pointer.
	if a.Schedule(sweep, rule, env) != s {
		t.Fatal("schedule not memoized")
	}
	if len(s.Writes) != 0 {
		t.Fatal("jacobi has no non-owner writes")
	}
}

func TestScheduleSenderReceiverViews(t *testing.T) {
	const n, np = 64, 4
	prog, sweep, _ := jacobiProg(n)
	a, _ := New(prog, np, buildLayouts(prog.Arrays), 128)
	s := a.Schedule(sweep, a.LoopRuleOf(sweep), map[string]int{"n": n})
	// Proc 1 is interior: sends 2 (to 0 and 2), receives 2.
	v := s.View(1)
	if got := len(v.ReadSend()); got != 2 {
		t.Fatalf("proc 1 sends %d", got)
	}
	if got := len(v.ReadRecv()); got != 2 {
		t.Fatalf("proc 1 receives %d", got)
	}
	for _, i := range v.ReadSend() {
		if s.Reads[i].Sender != 1 {
			t.Fatalf("proc 1's view lists a send of proc %d", s.Reads[i].Sender)
		}
	}
	// Proc 0 is an edge: 1 each.
	if v := s.View(0); len(v.ReadSend()) != 1 || len(v.ReadRecv()) != 1 {
		t.Fatal("edge proc wrong")
	}
}

func TestEdgeBytesWithMisalignedColumns(t *testing.T) {
	// 129-row columns (1032 bytes) are not a multiple of 128: block
	// alignment must leave edges to the default protocol (grav's
	// problem in the paper).
	const n, np = 129, 4
	prog, sweep, _ := jacobiProg(n)
	a, _ := New(prog, np, buildLayouts(prog.Arrays), 128)
	s := a.Schedule(sweep, a.LoopRuleOf(sweep), map[string]int{"n": n})
	for _, tr := range s.Reads {
		if tr.EdgeBytes == 0 {
			t.Fatalf("expected edge bytes on misaligned column: %v", tr)
		}
		if tr.NumBlocks*128+tr.EdgeBytes != tr.Sec.Count()*8 {
			t.Fatalf("blocks+edge != section bytes: %v", tr)
		}
	}
}

// luProg builds the LU-decomposition pattern: pivot normalize + update,
// with the pivot column broadcast (symbol-dependent schedule).
func luProg(n int) (*ir.Program, *ir.ParLoop, *ir.ParLoop) {
	A := &ir.Array{Name: "a", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Cyclic}}
	i, j, k := ir.V("i"), ir.V("j"), ir.V("k")
	norm := &ir.ParLoop{
		Label:   "normalize",
		Indexes: []ir.Index{ir.Idx("i", k.AddC(1), ir.Aff(n))},
		Body: []*ir.Assign{{
			LHS: ir.Ref(A, i, k),
			RHS: ir.Over(ir.Ref(A, i, k), ir.Ref(A, k, k)),
		}},
	}
	update := &ir.ParLoop{
		Label:   "update",
		Indexes: []ir.Index{ir.Idx("i", k.AddC(1), ir.Aff(n)), ir.Idx("j", k.AddC(1), ir.Aff(n))},
		Body: []*ir.Assign{{
			LHS: ir.Ref(A, i, j),
			RHS: ir.Minus(ir.Ref(A, i, j), ir.Times(ir.Ref(A, i, k), ir.Ref(A, k, j))),
		}},
	}
	prog := &ir.Program{
		Name:   "lu",
		Params: map[string]int{"n": n},
		Arrays: []*ir.Array{A},
		Body: []ir.Stmt{
			&ir.SeqLoop{Var: "k", Lo: ir.Aff(1), Hi: ir.Aff(n - 1), Body: []ir.Stmt{norm, update}},
		},
	}
	return prog, norm, update
}

func TestLUNormalizeSingleProcessor(t *testing.T) {
	const n, np = 32, 4
	prog, norm, _ := luProg(n)
	a, err := New(prog, np, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.LoopRuleOf(norm)
	if rule.DistVar != "" {
		t.Fatalf("normalize distvar = %q, want none (fixed column)", rule.DistVar)
	}
	env := map[string]int{"n": n, "k": 5}
	pt := a.Partition(norm, rule, env)
	if !pt.Single || pt.Exec != (5-1)%np {
		t.Fatalf("partition = %+v, want single executor owner(5)", pt)
	}
	// Normalize reads only its own column: no transfers.
	s := a.Schedule(norm, rule, env)
	if len(s.Reads) != 0 || len(s.Writes) != 0 {
		t.Fatalf("normalize schedule = %+v, want empty", s)
	}
}

func TestLUUpdateBroadcastsPivotColumn(t *testing.T) {
	const n, np = 32, 4
	prog, _, update := luProg(n)
	a, _ := New(prog, np, buildLayouts(prog.Arrays), 128)
	rule := a.LoopRuleOf(update)
	if rule.DistVar != "j" {
		t.Fatalf("update distvar = %q", rule.DistVar)
	}
	// Reads: a(i,k) fixed-column broadcast; a(k,j) is an aligned row
	// access (no comm).
	if len(rule.Reads) != 1 || rule.Reads[0].Kind != KindFixed {
		t.Fatalf("update read rules = %+v", rule.Reads)
	}
	if len(rule.UsedSym) != 1 || rule.UsedSym[0] != "k" {
		t.Fatalf("update uses %v, want [k]", rule.UsedSym)
	}
	env := map[string]int{"n": n, "k": 5}
	s := a.Schedule(update, rule, env)
	// Column 5 owned by proc 0 (cyclic, 0-based (5-1)%4=0); procs 1..3
	// execute some j in 6..32 and receive the pivot column.
	if len(s.Reads) != np-1 {
		t.Fatalf("broadcast transfers = %d, want %d: %v", len(s.Reads), np-1, s.Reads)
	}
	for _, tr := range s.Reads {
		if tr.Sender != 0 {
			t.Fatalf("pivot sender = %d", tr.Sender)
		}
		if tr.Sec.Dims[1] != (sections.Dim{Lo: 5, Hi: 5}) {
			t.Fatalf("pivot column = %v", tr.Sec.Dims[1])
		}
		if tr.Sec.Dims[0] != (sections.Dim{Lo: 6, Hi: n}) {
			t.Fatalf("pivot rows = %v, want 6..%d (triangular)", tr.Sec.Dims[0], n)
		}
	}
	// Different k -> different (memoized separately) schedule.
	s2 := a.Schedule(update, rule, map[string]int{"n": n, "k": 6})
	if s2 == s {
		t.Fatal("schedules for different k must differ")
	}
	if s2.Reads[0].Sender != 1 {
		t.Fatalf("k=6 pivot sender = %d, want 1", s2.Reads[0].Sender)
	}
}

// gatherProg models cg's matvec: q(j) = sum_i A(i,j)*p(i): every
// processor gathers the whole p vector.
func gatherProg(m, n int) (*ir.Program, *ir.ParLoop) {
	A := &ir.Array{Name: "A", Extents: []int{m, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	P := &ir.Array{Name: "p", Extents: []int{n}, Dist: distribute.Spec{Kind: distribute.Block}}
	Q := &ir.Array{Name: "q", Extents: []int{n}, Dist: distribute.Spec{Kind: distribute.Block}}
	j := ir.V("j")
	matvec := &ir.ParLoop{
		Label:   "matvec",
		Indexes: []ir.Index{ir.Idx("j", ir.Aff(1), ir.Aff(n))},
		Body: []*ir.Assign{{
			LHS: ir.Ref(Q, j),
			RHS: ir.InnerRed{Op: ir.RedSum, Var: "i", Lo: ir.Aff(1), Hi: ir.Aff(m),
				Body: ir.Times(ir.Ref(A, ir.V("i"), j), ir.Ref(P, ir.V("i")))},
		}},
	}
	prog := &ir.Program{
		Name:   "gather",
		Params: map[string]int{"m": m, "n": n},
		Arrays: []*ir.Array{A, P, Q},
		Body:   []ir.Stmt{matvec},
	}
	return prog, matvec
}

func TestGatherAnalysis(t *testing.T) {
	const m, n, np = 16, 16, 4
	prog, matvec := gatherProg(m, n)
	a, err := New(prog, np, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.LoopRuleOf(matvec)
	// p(i) gathers (i is an inner variable, p's extent n=16 matches);
	// A(i,j) is aligned.
	if len(rule.Reads) != 1 || rule.Reads[0].Kind != KindGather {
		t.Fatalf("gather rules = %+v", rule.Reads)
	}
	s := a.Schedule(matvec, rule, map[string]int{"m": m, "n": n})
	// Each of 4 procs receives p's other 3 chunks: 12 transfers.
	if len(s.Reads) != np*(np-1) {
		t.Fatalf("gather transfers = %d, want %d", len(s.Reads), np*(np-1))
	}
	total := 0
	for _, tr := range s.Reads {
		total += tr.Sec.Count()
	}
	if total != np*(n-n/np) {
		t.Fatalf("gathered elements = %d, want %d", total, np*(n-n/np))
	}
}

func TestPREMarksSecondReadOfUnchangedArray(t *testing.T) {
	// Two loops in a cycle both read h's boundary; h is written by
	// neither -> second transfer (and, via the cycle, the first) are
	// redundant after the first iteration.
	const n, np = 64, 4
	H := &ir.Array{Name: "h", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	U := &ir.Array{Name: "u", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	W := &ir.Array{Name: "w", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	i, j := ir.V("i"), ir.V("j")
	mk := func(label string, lhs *ir.Array) *ir.ParLoop {
		return &ir.ParLoop{
			Label:   label,
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(2), ir.Aff(n-1)), ir.Idx("j", ir.Aff(2), ir.Aff(n-1))},
			Body: []*ir.Assign{{
				LHS: ir.Ref(lhs, i, j),
				RHS: ir.Plus(ir.Ref(H, i, j.AddC(-1)), ir.Ref(H, i, j.AddC(1))),
			}},
		}
	}
	l1, l2 := mk("l1", U), mk("l2", W)
	prog := &ir.Program{
		Name:   "pretest",
		Params: map[string]int{"n": n},
		Arrays: []*ir.Array{H, U, W},
		Body:   []ir.Stmt{&ir.SeqLoop{Var: "t", Lo: ir.Aff(1), Hi: ir.Aff(5), Body: []ir.Stmt{l1, l2}}},
	}
	a, err := New(prog, np, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range a.LoopRuleOf(l2).Reads {
		if !rr.Redundant {
			t.Fatalf("l2 read %v not marked redundant", rr.Ref)
		}
	}
	// l1's reads are redundant via the cycle (nothing writes h at all).
	for _, rr := range a.LoopRuleOf(l1).Reads {
		if !rr.Redundant {
			t.Fatalf("l1 read %v not marked redundant across iterations", rr.Ref)
		}
	}
}

func TestPRENotMarkedWhenWritten(t *testing.T) {
	// jacobi: a is rewritten every iteration, so its transfers are
	// never redundant.
	prog, sweep, copyBack := jacobiProg(64)
	a, _ := New(prog, 4, buildLayouts(prog.Arrays), 128)
	for _, rr := range a.LoopRuleOf(sweep).Reads {
		if rr.Redundant {
			t.Fatal("jacobi sweep read wrongly marked redundant")
		}
	}
	_ = copyBack
}

func TestValidationErrors(t *testing.T) {
	n := 16
	A := &ir.Array{Name: "a", Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	i, j := ir.V("i"), ir.V("j")
	cases := []struct {
		name string
		loop *ir.ParLoop
	}{
		{"coef 2 subscript", &ir.ParLoop{
			Label:   "bad",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n/2))},
			Body:    []*ir.Assign{{LHS: ir.Ref(A, i, j.Scale(2)), RHS: ir.N(0)}},
		}},
		{"two loop vars in last subscript", &ir.ParLoop{
			Label:   "bad2",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(4)), ir.Idx("j", ir.Aff(1), ir.Aff(4))},
			Body:    []*ir.Assign{{LHS: ir.Ref(A, i, i.Add(j)), RHS: ir.N(0)}},
		}},
		{"transposed read", &ir.ParLoop{
			Label:   "bad3",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n))},
			Body:    []*ir.Assign{{LHS: ir.Ref(A, i, j), RHS: ir.Ref(A, j, i)}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := &ir.Program{Name: "bad", Params: map[string]int{}, Arrays: []*ir.Array{A},
				Body: []ir.Stmt{c.loop}}
			if _, err := New(prog, 4, buildLayouts(prog.Arrays), 128); err == nil {
				t.Error("expected analysis error")
			}
		})
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range []Level{OptNone, OptBase, OptBulk, OptRTElim, OptPRE} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLevel round trip failed for %v", l)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("bogus level accepted")
	}
}

func TestBlockCyclicSchedule(t *testing.T) {
	// CYCLIC(2) columns: groupByOwner must split shift transfers at
	// chunk boundaries.
	const n, np = 32, 4
	A := &ir.Array{Name: "a", Extents: []int{16, n}, Dist: distribute.Spec{Kind: distribute.BlockCyclic, K: 2}}
	B := &ir.Array{Name: "b", Extents: []int{16, n}, Dist: distribute.Spec{Kind: distribute.BlockCyclic, K: 2}}
	i, j := ir.V("i"), ir.V("j")
	loop := &ir.ParLoop{
		Label:   "bc",
		Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(16)), ir.Idx("j", ir.Aff(2), ir.Aff(n-1))},
		Body:    []*ir.Assign{{LHS: ir.Ref(B, i, j), RHS: ir.Ref(A, i, j.AddC(1))}},
	}
	prog := &ir.Program{Name: "bc", Params: map[string]int{}, Arrays: []*ir.Array{A, B},
		Body: []ir.Stmt{loop}}
	an, err := New(prog, np, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	rule := an.LoopRuleOf(loop)
	env := map[string]int{}
	pt := an.Partition(loop, rule, env)
	d := an.Dist(A)
	// Partition: every executed column is owned by its executor.
	for p := 0; p < np; p++ {
		for _, r := range pt.Ranges[p] {
			for jj := r[0]; jj <= r[1]; jj++ {
				if d.Owner(jj) != p {
					t.Fatalf("col %d executed by %d, owned by %d", jj, p, d.Owner(jj))
				}
			}
		}
	}
	sched := an.Schedule(loop, rule, env)
	// Each proc reads column chunkEnd+1, owned by the next proc: with
	// K=2, chunks are pairs, so every second column crosses owners.
	for _, tr := range sched.Reads {
		if d.Owner(tr.Sec.Dims[1].Lo) != tr.Sender {
			t.Fatalf("transfer %v not from the column owner", tr)
		}
		if tr.Sender == tr.Receiver {
			t.Fatalf("self transfer %v", tr)
		}
	}
	// Coverage: every executed, not-owned read column appears in some
	// transfer to its reader.
	for p := 0; p < np; p++ {
		for _, r := range pt.Ranges[p] {
			for jj := r[0]; jj <= r[1]; jj++ {
				src := jj + 1
				if src > n || d.Owner(src) == p {
					continue
				}
				found := false
				for _, tr := range sched.Reads {
					if tr.Receiver == p && tr.Sec.Dims[1].Lo <= src && src <= tr.Sec.Dims[1].Hi {
						found = true
					}
				}
				if !found {
					t.Fatalf("proc %d reads col %d with no transfer", p, src)
				}
			}
		}
	}
}
