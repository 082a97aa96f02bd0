package compiler

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
)

// BenchmarkBuildSchedules is the schedule builder's layer number, the
// analysis half of the frontend_verify workload (BenchmarkCheckLoopCalls
// in internal/analysis is the verifier half): a cold New, then every
// schedule, with its partition, that the verifier instantiates — lu's
// one per pivot step and pde's stencil exchanges — on 64 nodes.
func BenchmarkBuildSchedules(b *testing.B) {
	for _, name := range []string{"lu", "pde"} {
		a, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := a.Program(a.BenchParams)
		if err != nil {
			b.Fatal(err)
		}
		mc := config.Default().WithNodes(64)
		_, layouts := Place(prog, mc)
		b.Run(fmt.Sprintf("%s/nodes=%d", name, mc.Nodes), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				an, err := New(prog, mc.Nodes, layouts, mc.BlockSize)
				if err != nil {
					b.Fatal(err)
				}
				eachSchedule(an, func(string, *Schedule) {})
			}
		})
	}
}

// TestConcurrentBuildsMatchSequential: schedules that goroutines build
// at the same time — of one shared analysis, as sweep workers share a
// cached one, and of analyses of their own — equal the ones a lone
// build makes, block lists and keys alike: the builds take turns on the
// one scratch builder and copy out storage of their own.
func TestConcurrentBuildsMatchSequential(t *testing.T) {
	var progs []*ir.Program
	for _, name := range []string{"lu", "cg", "pde"} {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	mc := config.Default()
	analyse := func(prog *ir.Program) *Analysis {
		_, layouts := Place(prog, mc)
		an, err := New(prog, mc.Nodes, layouts, mc.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	// all lists the transfers of every schedule of an, in walk order.
	all := func(an *Analysis) (out [][]Transfer) {
		eachSchedule(an, func(_ string, s *Schedule) { out = append(out, s.Reads, s.Writes) })
		return out
	}
	shared := analyse(progs[0])
	var wg sync.WaitGroup
	got := make([][][]Transfer, 2*len(progs))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < len(progs) {
				got[i] = all(analyse(progs[i]))
			} else {
				got[i] = all(shared)
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if want := all(analyse(progs[i%len(progs)])); i < len(progs) && !reflect.DeepEqual(g, want) {
			t.Errorf("%s: a build beside others differs from a lone one", progs[i].Name)
		}
	}
	for _, g := range got[len(progs):] {
		if !reflect.DeepEqual(g, got[len(progs)]) {
			t.Errorf("%s: builders of one shared analysis saw different schedules", progs[0].Name)
		}
	}
}
