package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/sections"
)

// frameRef is one frame as the verifier kept its frames before they
// became one run list: the blocks a node opened in one phase and has not
// invalidated since.
type frameRef struct {
	phase  int
	blocks []sections.BlockRun
}

// framesRef is the reference for frames: per node, a list of frames,
// and every event and query a sections.Minus per frame.
type framesRef [][]frameRef

func (r framesRef) open(n, phase int, blocks []sections.BlockRun) bool {
	fresh := blocks
	for _, f := range r[n] {
		fresh = sections.Minus(fresh, f.blocks)
	}
	if fresh = sections.Normalize(fresh); len(fresh) > 0 {
		r[n] = append(r[n], frameRef{phase, slices.Clone(fresh)})
		return true
	}
	return false
}

func (r framesRef) close(n int, blocks []sections.BlockRun) {
	open := r[n]
	r[n] = open[:0]
	for _, f := range open {
		if f.blocks = sections.Minus(f.blocks, blocks); len(f.blocks) > 0 {
			r[n] = append(r[n], f)
		}
	}
}

func (r framesRef) late(n, phase int, blocks []sections.BlockRun) []sections.BlockRun {
	late := blocks
	for _, f := range r[n] {
		if f.phase < phase {
			late = sections.Minus(late, f.blocks)
		}
	}
	return late
}

func (r framesRef) unopened(n int, late []sections.BlockRun) []sections.BlockRun {
	for _, f := range r[n] {
		late = sections.Minus(late, f.blocks)
	}
	return late
}

// runs is node n's frames as one canonical run list, built from the
// reference's frames: what frames must hold.
func (r framesRef) runs(n int) []frameRun {
	var all []frameRun
	for _, f := range r[n] {
		for _, b := range f.blocks {
			all = append(all, frameRun{b.Start, b.End(), f.phase})
		}
	}
	slices.SortFunc(all, func(a, b frameRun) int { return cmp.Compare(a.start, b.start) })
	var out []frameRun
	for _, fr := range all {
		out = appendRun(out, fr)
	}
	return out
}

// frameStats counts what a replay covered.
type frameStats struct {
	added, unchanged, closes, arrivals, late int
}

// replayFrames applies events, in order, to frames and to the reference,
// and fails at the first event after which a verdict, a query's answer
// or a node's open runs differ: late exactly (its order is the order of
// the diagnostics), unopened as a set.
func replayFrames(t *testing.T, np int, events []event) frameStats {
	t.Helper()
	fs, ref := newFrames(np), make(framesRef, np)
	var st frameStats
	for i, e := range events {
		switch e.kind {
		case evOpen:
			got, want := fs.open(e.node, e.phase, e.blocks), ref.open(e.node, e.phase, e.blocks)
			if got != want {
				t.Fatalf("event %d, %v %v at phase %d on node %d: added %v, the reference %v", i, e.kind, e.blocks, e.phase, e.node, got, want)
			}
			if got {
				st.added++
			} else {
				st.unchanged++
			}
		case evClose:
			fs.close(e.node, e.blocks)
			ref.close(e.node, e.blocks)
			st.closes++
		default:
			st.arrivals++
			got, want := fs.late(e.dst, e.phase, e.blocks), ref.late(e.dst, e.phase, e.blocks)
			if !slices.Equal(got, want) {
				t.Fatalf("event %d, %v of %v at phase %d to node %d: late %v, the reference %v", i, e.kind, e.blocks, e.phase, e.dst, got, want)
			}
			if len(want) == 0 {
				break
			}
			st.late++
			// ContainsBlock is all the check asks of unopened.
			got = sections.Normalize(fs.unopened(e.dst, got))
			want = sections.Normalize(ref.unopened(e.dst, want))
			if !slices.Equal(got, want) {
				t.Fatalf("event %d, %v of %v at phase %d to node %d: unopened %v, the reference %v", i, e.kind, e.blocks, e.phase, e.dst, got, want)
			}
		}
		if e.kind == evOpen || e.kind == evClose {
			if want := ref.runs(e.node); !slices.Equal(fs.node[e.node], want) {
				t.Fatalf("event %d, %v %v at phase %d: node %d holds %v, the reference %v", i, e.kind, e.blocks, e.phase, e.node, fs.node[e.node], want)
			}
		}
	}
	return st
}

// TestFrameSetMatchesReference replays the frame events and arrivals the
// verifier applies to its frames — every application, on 8 and 64 nodes,
// at all five levels — against the per-frame lists it replaced.
func TestFrameSetMatchesReference(t *testing.T) {
	var total frameStats
	for _, a := range apps.All() {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{8, 64} {
			mc := config.Default().WithNodes(nodes)
			_, layouts := compiler.Place(prog, mc)
			an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range Levels() {
				t.Run(fmt.Sprintf("%s@%d/%v", a.Name, nodes, lv), func(t *testing.T) {
					var events []event
					m := NewModel(an, lv, NewReport(prog.Name))
					m.onEvent = func(e event) {
						e.blocks = slices.Clone(e.blocks) // the fold's scratch
						events = append(events, e)
					}
					m.Walk()
					st := replayFrames(t, nodes, events)
					total.added += st.added
					total.unchanged += st.unchanged
					total.closes += st.closes
					total.arrivals += st.arrivals
				})
			}
		}
	}
	if total.added == 0 || total.unchanged == 0 || total.closes == 0 || total.arrivals == 0 {
		t.Fatalf("the replays covered %+v: some kind of event never occurred", total)
	}
}

// FuzzFrameSet replays random opens, closes and arrivals on three nodes
// against the reference. Block lists may be unsorted, overlapping or
// hold empty runs, as a mutated call stream's can.
func FuzzFrameSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 4, 6, 3, 1, 2, 1, 8})                 // open, then an arrival in the same phase
	f.Add([]byte{0, 1, 1, 0, 8, 0, 2, 2, 4, 3, 1, 2, 1, 5, 2})     // two opens, then a close
	f.Add([]byte{6, 1, 2, 12, 3, 4, 2, 0, 8, 3, 6, 3, 2, 4, 3, 0}) // an unsorted, overlapping arrival
	f.Fuzz(func(t *testing.T, data []byte) {
		const np = 3
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var events []event
		for len(data) > 0 {
			op := next()
			e := event{kind: evKind(op % 4), node: op / 4 % np, dst: op / 12 % np, phase: next() % 8}
			for range next() % 5 {
				e.blocks = append(e.blocks, sections.BlockRun{Start: next() % 64, N: next()%10 - 1})
			}
			events = append(events, e)
		}
		replayFrames(t, np, events)
	})
}
