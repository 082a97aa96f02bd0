package compiler

import (
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
)

// transferID is what a transfer's Key stands for: its array, its section
// and its receiver.
type transferID struct {
	array *ir.Array
	sec   string
	to    int
}

func (id transferID) String() string {
	return fmt.Sprintf("%s%s to node %d", id.array.Name, id.sec, id.to)
}

// TestTransferKeyInjective: two transfers share a Key exactly when they
// share array, section and receiver, over every transfer of every
// schedule instance of every application on 8 and 64 nodes. PRE's
// delivered set and the verifier's liveness map need both directions: a
// key two contents share would elide a needed transfer, and two keys for
// one content would keep a redundant one.
func TestTransferKeyInjective(t *testing.T) {
	for _, app := range apps.All() {
		for _, nodes := range []int{8, 64} {
			t.Run(fmt.Sprintf("%s@%d", app.Name, nodes), func(t *testing.T) {
				prog, err := app.Program(app.ScaledParams)
				if err != nil {
					t.Fatal(err)
				}
				mc := config.Default().WithNodes(nodes)
				_, layouts := Place(prog, mc)
				a, err := New(prog, mc.Nodes, layouts, mc.BlockSize)
				if err != nil {
					t.Fatal(err)
				}
				byKey, byID := map[string]transferID{}, map[transferID]string{}
				eachSchedule(a, func(label string, s *Schedule) {
					for _, ts := range [][]Transfer{s.Reads, s.Writes} {
						for i := range ts {
							x := &ts[i]
							id := transferID{x.Array, fmt.Sprint(x.Sec.Dims), x.Receiver}
							if prev, ok := byKey[x.Key]; ok && prev != id {
								t.Fatalf("%s: %v and %v share the key %q", label, prev, id, x.Key)
							}
							if prev, ok := byID[id]; ok && prev != x.Key {
								t.Fatalf("%s: %v has the keys %q and %q", label, id, prev, x.Key)
							}
							byKey[x.Key], byID[id] = id, x.Key
						}
					}
				})
				if len(byKey) < 2 {
					t.Fatalf("%d distinct transfers: the comparison saw no pair", len(byKey))
				}
				t.Logf("%d distinct transfers", len(byKey))
			})
		}
	}
}
