package bench

import (
	"testing"

	"hpfdsm/internal/config"
)

// TestScaleCellSameOnTwoPartitions runs one scale cell's sync and
// invalidation microbenchmarks on one Env and on two partitions: the
// cluster picks its engine behind one Run call, and the cell must come
// out the same, field for field.
func TestScaleCellSameOnTwoPartitions(t *testing.T) {
	for _, topo := range []config.Topology{config.Flat, config.TreeTopo} {
		var cells [2]ScaleCell
		for i, parts := range []int{1, 2} {
			cell, err := measureSync(16, topo, parts)
			if err != nil {
				t.Fatal(err)
			}
			if err := measureInval(&cell, parts); err != nil {
				t.Fatal(err)
			}
			cells[i] = cell
		}
		if cells[0] != cells[1] {
			t.Errorf("%v: one partition measured %+v, two %+v", topo, cells[0], cells[1])
		}
	}
}
