package analysis_test

import (
	"fmt"
	"reflect"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// freshModels is VerifyAnalysis as it was before one model served every
// level: a fresh NewModel per level, each with its calls through tee and
// the race analysis on the first only.
func freshModels(an *compiler.Analysis, tee tee, levels []compiler.Level) *analysis.Report {
	rep := analysis.NewReport(an.Prog.Name)
	for i, lv := range levels {
		rep.Levels = append(rep.Levels, lv)
		m := analysis.NewModel(an, lv, rep)
		m.Tee = tee
		m.SetRaces(i == 0)
		m.Walk()
	}
	loops := map[string]bool{}
	ir.WalkStmts(an.Prog.Body, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.ParLoop:
			loops[st.Label] = true
		case *ir.Reduce:
			loops[st.Label] = true
		}
	})
	rep.Loops = len(loops)
	return rep
}

// TestVerifyAnalysisMatchesFreshModels: the one model VerifyAnalysis
// resets for every level reports exactly what a fresh model per level
// does — report text, instances, loops, and the checked and broken marks
// of every rule — on every application at 8 and 64 nodes, clean and
// under every call mutation the contract tests apply through Tee, and on
// the contract fixture, whose second loop flushes.
func TestVerifyAnalysisMatchesFreshModels(t *testing.T) {
	fixture, err := lang.Parse(fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*ir.Program{fixture}
	for _, a := range apps.All() {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	// Each mutation is made afresh for each side: a tee may count calls.
	mutations := []struct {
		name string
		tee  func() tee
	}{
		{"clean", func() tee { return nil }},
		{"drop-ready-to-recv", func() tee { return dropReadyToRecv }},
		{"drop-flush-side", func() tee { return dropFlushSide }},
		{"drop-implicit-writable", func() tee { return dropImplicitWritable }},
		{"drop-4th-barrier-of-node-0", func() tee { return dropKth(0, "barrier", 4) }},
		{"drop-sends", func() tee { return dropSends }},
		{"drop-mk-writable", func() tee { return dropMkWritable }},
		{"send-twice-overlapping", func() tee { return sendTwiceOverlapping }},
		{"open-frames-late", openFramesLate},
	}
	levels := analysis.Levels()
	for _, prog := range progs {
		for _, nodes := range []int{8, 64} {
			mc := config.Default().WithNodes(nodes)
			_, layouts := compiler.Place(prog, mc)
			an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, mu := range mutations {
				var got *analysis.Report
				if tee := mu.tee(); tee != nil {
					got = analysis.VerifyTee(an, tee, levels...)
				} else {
					got = analysis.VerifyAnalysis(an, levels...)
				}
				if want := freshModels(an, mu.tee(), levels); !reflect.DeepEqual(got, want) {
					t.Errorf("%s@%d, %s: one model reports\n%s\nfresh models report\n%s\nrules held %v, fresh %v",
						prog.Name, nodes, mu.name, got, want, rulesHeld(got, prog), rulesHeld(want, prog))
				}
			}
		}
	}
}

// rulesHeld lists, per loop, the rules the report holds as checked and
// unbroken.
func rulesHeld(rep *analysis.Report, prog *ir.Program) string {
	var out string
	ir.WalkStmts(prog.Body, func(s ir.Stmt) {
		if pl, ok := s.(*ir.ParLoop); ok {
			out += fmt.Sprintf("%s:%v ", pl.Label, rep.RulesFor(pl.Label))
		}
	})
	return out
}
