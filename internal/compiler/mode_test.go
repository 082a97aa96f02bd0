package compiler

import (
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/config"
	"hpfdsm/internal/protocol"
)

// matrices is the reference transport policy's input: one transfer
// list's traffic summed into dense [sender][receiver] cells, bytes of
// block-aligned interior and bulk wire messages (one per block run).
func matrices(ts []Transfer, np, blockSize int) (bytes, msgs [][]int64) {
	bytes, msgs = make([][]int64, np), make([][]int64, np)
	for i := range bytes {
		bytes[i], msgs[i] = make([]int64, np), make([]int64, np)
	}
	for i := range ts {
		t := &ts[i]
		bytes[t.Sender][t.Receiver] += int64(t.NumBlocks) * int64(blockSize)
		msgs[t.Sender][t.Receiver] += int64(len(t.Blocks))
	}
	return bytes, msgs
}

// refMode is the transport decision read off one cell of the matrices.
func refMode(level Level, bytes, msgs int64, blockSize, threshold int) protocol.SendMode {
	switch {
	case level < OptBulk || bytes <= int64(blockSize):
		return protocol.SendEager
	case msgs >= 2 && bytes >= int64(threshold):
		return protocol.SendAggregate
	default:
		return protocol.SendBulk
	}
}

// TestModeMatchesMatrixReference: the transport each transfer takes,
// read off its pair's totals, is the one dense traffic matrices give, for
// every transfer of every schedule instance of every application on 8
// and 64 flat nodes and 256 in a radix-4 tree, at the levels that choose
// one. Instances that share a (memoized) schedule are checked once.
func TestModeMatchesMatrixReference(t *testing.T) {
	machines := []config.Machine{
		config.Default().WithNodes(8),
		config.Default().WithNodes(64),
		config.Default().WithNodes(256).WithTopology(config.TreeTopo).WithRadix(4),
	}
	seen := map[protocol.SendMode]int{}
	for _, app := range apps.All() {
		for _, mc := range machines {
			t.Run(fmt.Sprintf("%s@%d", app.Name, mc.Nodes), func(t *testing.T) {
				prog, err := app.Program(app.ScaledParams)
				if err != nil {
					t.Fatal(err)
				}
				_, layouts := Place(prog, mc)
				a, err := New(prog, mc.Nodes, layouts, mc.BlockSize)
				if err != nil {
					t.Fatal(err)
				}
				bs, threshold := mc.BlockSize, mc.EffectiveAggThreshold()
				checked := map[*Schedule]bool{}
				eachSchedule(a, func(label string, s *Schedule) {
					if checked[s] {
						return
					}
					checked[s] = true
					for _, ts := range [][]Transfer{s.Reads, s.Writes} {
						bytes, msgs := matrices(ts, mc.Nodes, bs)
						for i := range ts {
							x := &ts[i]
							for _, level := range []Level{OptBulk, OptRTElim, OptPRE} {
								want := refMode(level, bytes[x.Sender][x.Receiver], msgs[x.Sender][x.Receiver], bs, threshold)
								if got := x.Mode(level, bs, threshold); got != want {
									t.Fatalf("%s %v at %v: mode %v, the matrices give %v", label, x, level, got, want)
								}
								seen[want]++
							}
						}
					}
				})
			})
		}
	}
	for _, mode := range []protocol.SendMode{protocol.SendEager, protocol.SendBulk, protocol.SendAggregate} {
		if seen[mode] == 0 {
			t.Errorf("no transfer takes mode %v: the comparison never covered it (%v)", mode, seen)
		}
	}
}
