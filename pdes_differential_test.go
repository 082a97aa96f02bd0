// PDES differential tests: a partitioned run of the conservative
// window scheduler must be observationally indistinguishable from the
// sequential event loop. Not "statistically close" — bit-identical:
// the same elapsed simulated time, the same per-node protocol
// counters, and the same final array contents down to the last
// mantissa bit, for every application at every optimization level.
//
// This is the strongest check the design admits: the window scheduler
// never forces a partition's clock, the cross-partition mailbox merges
// messages in the same (arrival, send-time, source) total order the
// sequential heap would have used, and lookahead guarantees no message
// can arrive inside an already-executed window. Any divergence in any
// counter on any node is a determinism bug, so the comparison covers
// all of them.
package hpfdsm_test

import (
	"math"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/stats"
)

// runPDES executes one app at one opt level on the shared-memory
// backend with the given partition count and returns the result.
func runPDES(t *testing.T, a *apps.App, opt compiler.Level, parts int) *runtime.Result {
	t.Helper()
	return runApp(t, a, runtime.Options{Machine: config.Default(), Opt: opt, Partitions: parts})
}

func diffNodeStats(t *testing.T, node int, seq, par *stats.Node) {
	t.Helper()
	type field struct {
		name     string
		seq, par int64
	}
	fields := []field{
		{"ReadMisses", seq.ReadMisses, par.ReadMisses},
		{"WriteMisses", seq.WriteMisses, par.WriteMisses},
		{"UpgradeMisses", seq.UpgradeMisses, par.UpgradeMisses},
		{"MsgsSent", seq.MsgsSent, par.MsgsSent},
		{"MsgsRecv", seq.MsgsRecv, par.MsgsRecv},
		{"BytesSent", seq.BytesSent, par.BytesSent},
		{"BytesRecv", seq.BytesRecv, par.BytesRecv},
		{"SegsCoalesced", seq.SegsCoalesced, par.SegsCoalesced},
	}
	for _, f := range fields {
		if f.seq != f.par {
			t.Errorf("node %d: %s = %d under PDES, %d sequential", node, f.name, f.par, f.seq)
		}
	}
}

// TestPDESDifferential runs every app at every optimization level
// sequentially and at 2 and 4 partitions, and demands bit-identical
// observables. Even cg — whose reference comparison is tolerance-based
// because reductions reassociate against the *sequential Go program* —
// must match the sequential *simulation* exactly: both executions feed
// the reduction tree contributions in the same deterministic order.
func TestPDESDifferential(t *testing.T) {
	levels := []compiler.Level{compiler.OptNone, compiler.OptBulk, compiler.OptRTElim}
	partCounts := []int{2, 4, 8}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, opt := range levels {
				opt := opt
				t.Run(opt.String(), func(t *testing.T) {
					seq := runPDES(t, a, opt, 1)
					for _, parts := range partCounts {
						par := runPDES(t, a, opt, parts)
						prefix := "p" + string(rune('0'+parts)) + ": "
						if par.Elapsed != seq.Elapsed {
							t.Errorf("%selapsed %dns under PDES, %dns sequential", prefix, par.Elapsed, seq.Elapsed)
						}
						if len(par.Stats.Nodes) != len(seq.Stats.Nodes) {
							t.Fatalf("%s%d stat nodes under PDES, %d sequential", prefix, len(par.Stats.Nodes), len(seq.Stats.Nodes))
						}
						for i := range seq.Stats.Nodes {
							diffNodeStats(t, i, &seq.Stats.Nodes[i], &par.Stats.Nodes[i])
						}
						for _, name := range a.CheckArrays {
							got := par.ArrayData(name)
							want := seq.ArrayData(name)
							if len(got) != len(want) {
								t.Fatalf("%sarray %s: length %d under PDES, %d sequential", prefix, name, len(got), len(want))
							}
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%sarray %s[%d] = %x under PDES, %x sequential (expected bit-identical)",
										prefix, name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestPDESDifferentialMessagePassing is the same demand on the
// message-passing backend: its sends and receives are plain network
// messages between node processes, which is all the window scheduler
// partitions, so every app at 2, 4 and 8 partitions must reproduce the
// sequential run's elapsed time, every counter of every node, and the
// owners' array words.
func TestPDESDifferentialMessagePassing(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			mp := runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim, Backend: runtime.MessagePassing}
			seq := runApp(t, a, mp)
			for _, parts := range []int{2, 4, 8} {
				mp.Partitions = parts
				par := runApp(t, a, mp)
				if par.Elapsed != seq.Elapsed {
					t.Errorf("p%d: elapsed %dns under PDES, %dns sequential", parts, par.Elapsed, seq.Elapsed)
				}
				if len(par.Stats.Nodes) != len(seq.Stats.Nodes) {
					t.Fatalf("p%d: %d stat nodes under PDES, %d sequential", parts, len(par.Stats.Nodes), len(seq.Stats.Nodes))
				}
				for i := range seq.Stats.Nodes {
					if par.Stats.Nodes[i] != seq.Stats.Nodes[i] {
						t.Errorf("p%d: node %d counters under PDES\n%+v\nsequential\n%+v", parts, i, par.Stats.Nodes[i], seq.Stats.Nodes[i])
					}
				}
				compareArraysBitExact(t, a, seq, par, "mp pdes vs sequential")
			}
		})
	}
}
