package protocol

import mbits "math/bits"

// nodeset is a multi-word bitmap over node ids. The directory's
// sharer/writer/stale sets were single uint64 masks — the historic
// 64-node cap — and are now sized to the cluster, so the same
// directory scales to the tree topology's 1024-node runs. A nil
// nodeset (an unmade directory entry's) reads as empty.
type nodeset []uint64

// nsWords returns how many words a cluster of n nodes needs.
func nsWords(n int) int { return (n + 63) / 64 }

// has reports membership; out-of-range ids (including any id against a
// nil set) are simply absent.
func (s nodeset) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<uint(i&63)) != 0
}

// set adds i. The set must have been sized to the cluster.
func (s nodeset) set(i int) { s[i>>6] |= 1 << uint(i&63) }

// clear removes i.
func (s nodeset) clear(i int) {
	if w := i >> 6; w < len(s) {
		s[w] &^= 1 << uint(i&63)
	}
}

// clearAll empties the set in place.
func (s nodeset) clearAll() {
	for w := range s {
		s[w] = 0
	}
}

// count returns the population.
func (s nodeset) count() int {
	c := 0
	for _, w := range s {
		c += mbits.OnesCount64(w)
	}
	return c
}

// any reports whether the set is non-empty.
func (s nodeset) any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// next returns the lowest member >= i, or -1 when none remains —
// alloc-free member iteration that replaces the old dense 0..N scans:
//
//	for w := set.next(0); w >= 0; w = set.next(w + 1) { ... }
//
// Mutating the set mid-iteration is safe; next re-reads the words.
func (s nodeset) next(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if rest := s[w] >> uint(i&63); rest != 0 {
		return i + mbits.TrailingZeros64(rest)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + mbits.TrailingZeros64(s[w])
		}
	}
	return -1
}
