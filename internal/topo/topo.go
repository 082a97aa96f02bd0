// Package topo models the hierarchical node addressing used by the
// scale-out coherence layer: a heap-shaped K-ary combining tree over
// node ids 0..N-1 plus (cluster, leaf) coordinates that group radix
// consecutive node ids into one cluster.
//
// Two views of the same id space coexist:
//
//   - The combining tree drives barriers and reductions. Node i's
//     parent is (i-1)/K and its children are K*i+1 .. K*i+K, so node 0
//     (the flat protocol's synchronization master) is always the root
//     and the depth is ceil(log_K N). The shape is a pure function of
//     (N, K) — no topology state lives in the simulator.
//
//   - Cluster coordinates drive multicast invalidation fan-out: node
//     id maps to (id/K, id%K). A block's home forwards one
//     invalidation per sharer-holding cluster to a relay leaf, which
//     fans out inside the cluster and combines the acks on the way
//     back up. Because a leaf index is always < K <= 64, intra-cluster
//     membership fits a single uint64 mask even when N does not.
//
// Both views reject out-of-range ids loudly: a wrong coordinate
// silently aliased onto another node would corrupt directory state in
// a way no invariant check could localize.
package topo

import "fmt"

// MaxRadix bounds the tree fan-out so intra-cluster leaf sets fit one
// uint64 mask (and a parent's child-arrival set fits one too).
const MaxRadix = 64

// Tree is the heap-shaped K-ary tree over node ids 0..N-1. The zero
// value is invalid; construct with New.
type Tree struct {
	n     int
	radix int
}

// Coord addresses a node as (cluster, leaf): cluster groups radix
// consecutive ids, leaf is the position within the cluster.
type Coord struct {
	Cluster int
	Leaf    int
}

// New validates (n, radix) and returns the tree. radix must be in
// [2, MaxRadix]; n must be positive.
func New(n, radix int) (Tree, error) {
	if n < 1 {
		return Tree{}, fmt.Errorf("topo: need at least 1 node, have %d", n)
	}
	if radix < 2 || radix > MaxRadix {
		return Tree{}, fmt.Errorf("topo: radix %d outside [2, %d]", radix, MaxRadix)
	}
	return Tree{n: n, radix: radix}, nil
}

// MustNew is New for configurations already validated by config.
func MustNew(n, radix int) Tree {
	t, err := New(n, radix)
	if err != nil {
		panic(err)
	}
	return t
}

// Nodes returns N.
func (t Tree) Nodes() int { return t.n }

// Radix returns K.
func (t Tree) Radix() int { return t.radix }

// Root is the tree root and the barrier master, always node 0 so the
// flat and tree protocols agree on where synchronization state lives.
const Root = 0

// Parent returns the combining-tree parent of id, or -1 for the root.
// It panics on an out-of-range id.
func (t Tree) Parent(id int) int {
	t.check(id)
	if id == Root {
		return -1
	}
	return (id - 1) / t.radix
}

// Children appends the child ids of id to dst and returns it. The
// result is ascending; leaves append nothing.
func (t Tree) Children(id int, dst []int) []int {
	t.check(id)
	for c := t.radix*id + 1; c <= t.radix*id+t.radix && c < t.n; c++ {
		dst = append(dst, c)
	}
	return dst
}

// NumChildren returns how many children id has.
func (t Tree) NumChildren(id int) int {
	t.check(id)
	lo := t.radix*id + 1
	if lo >= t.n {
		return 0
	}
	hi := lo + t.radix
	if hi > t.n {
		hi = t.n
	}
	return hi - lo
}

// SubtreeSize returns the number of nodes in the subtree rooted at id,
// including id itself. Used to size combined-contribution vectors.
func (t Tree) SubtreeSize(id int) int {
	t.check(id)
	size := 1
	for c := t.radix*id + 1; c <= t.radix*id+t.radix && c < t.n; c++ {
		size += t.SubtreeSize(c)
	}
	return size
}

// Depth returns the number of edge levels from root to the deepest
// leaf: 0 for a single node, and O(log_K N) generally — the factor
// that replaces the flat barrier's O(N) fan-in.
func (t Tree) Depth() int {
	d := 0
	for id := t.n - 1; id != Root; id = (id - 1) / t.radix {
		d++
	}
	return d
}

// Coord returns the (cluster, leaf) coordinates of id.
func (t Tree) Coord(id int) (Coord, error) {
	if id < 0 || id >= t.n {
		return Coord{}, fmt.Errorf("topo: node id %d outside [0, %d)", id, t.n)
	}
	return Coord{Cluster: id / t.radix, Leaf: id % t.radix}, nil
}

// NodeID inverts Coord, rejecting coordinates that name no node.
func (t Tree) NodeID(c Coord) (int, error) {
	if c.Cluster < 0 || c.Leaf < 0 || c.Leaf >= t.radix {
		return 0, fmt.Errorf("topo: bad coordinate (cluster=%d leaf=%d) for radix %d", c.Cluster, c.Leaf, t.radix)
	}
	id := c.Cluster*t.radix + c.Leaf
	if id >= t.n {
		return 0, fmt.Errorf("topo: coordinate (cluster=%d leaf=%d) names node %d outside [0, %d)", c.Cluster, c.Leaf, id, t.n)
	}
	return id, nil
}

// ClusterOf returns id's cluster index without the error path, for
// hot protocol code on ids already known to be in range.
func (t Tree) ClusterOf(id int) int {
	t.check(id)
	return id / t.radix
}

// LeafOf returns id's leaf index within its cluster.
func (t Tree) LeafOf(id int) int {
	t.check(id)
	return id % t.radix
}

// ClusterBase returns the lowest node id in the given cluster.
func (t Tree) ClusterBase(cluster int) int {
	if cluster < 0 || cluster >= t.Clusters() {
		panic(fmt.Sprintf("topo: cluster %d outside [0, %d)", cluster, t.Clusters()))
	}
	return cluster * t.radix
}

// ClusterSize returns how many nodes the given cluster holds (the last
// cluster may be partial).
func (t Tree) ClusterSize(cluster int) int {
	base := t.ClusterBase(cluster)
	if base+t.radix > t.n {
		return t.n - base
	}
	return t.radix
}

// Clusters returns the number of clusters, ceil(N / radix).
func (t Tree) Clusters() int {
	return (t.n + t.radix - 1) / t.radix
}

func (t Tree) check(id int) {
	if id < 0 || id >= t.n {
		panic(fmt.Sprintf("topo: node id %d outside [0, %d)", id, t.n))
	}
}
