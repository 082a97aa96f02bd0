package runtime

import (
	"fmt"
	"math"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
)

// MAX and MIN fold a node's share and the nodes' partials with the same
// commutative operator, so a NaN or a signed zero gives the same bits
// however the elements are spread: on one node, two, eight, and an
// eight-node radix-2 tree. A node's share used to be folded with `>` and
// `<`, which keep whichever of a NaN or a zero came first: a NaN at
// a(9) reached M and Z on eight nodes, where it starts node 1's share,
// and not on one or two.
func TestMaxMinSameBitsAtEveryNodeCount(t *testing.T) {
	for _, tc := range []struct {
		name, fill, odd string
		m, z            float64
	}{
		{"nan", "i", "SQRT(0 - 9)", math.NaN(), math.NaN()},
		{"signed zero", "0", "0 * (0 - 1)", 0, math.Copysign(0, -1)},
	} {
		src := fmt.Sprintf(`PROGRAM maxmin
PARAM n = 64
SCALAR m, z
REAL a(n)
DISTRIBUTE a(BLOCK)
FORALL (i = 1:n)
  a(i) = %s
END FORALL
FORALL (i = 9:9)
  a(i) = %s
END FORALL
REDUCE (MAX, m, i = 1:n) a(i)
REDUCE (MIN, z, i = 1:n) a(i)
END
`, tc.fill, tc.odd)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want := [2]uint64{math.Float64bits(tc.m), math.Float64bits(tc.z)}
		for _, mc := range []config.Machine{
			config.Default().WithNodes(1),
			config.Default().WithNodes(2),
			config.Default().WithNodes(8),
			config.Default().WithNodes(8).WithTopology(config.TreeTopo).WithRadix(2),
		} {
			res, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim})
			if err != nil {
				t.Fatal(err)
			}
			got := [2]uint64{math.Float64bits(res.Scalars["M"]), math.Float64bits(res.Scalars["Z"])}
			if got != want {
				t.Errorf("%s, %d node(s), %v: M, Z bits %#x; want %#x", tc.name, mc.Nodes, mc.Topology, got, want)
			}
		}
	}
}
