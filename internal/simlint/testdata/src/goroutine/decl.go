// decl.go exercises the declaration-scoped //simlint:concurrent
// carve-out: an annotated function or type admits its own primitives
// while the rest of the file stays under the single-threaded
// rule, and an annotated declaration guarding no primitive surfaces as
// an unused annotation.
package goroutine

import "sync/atomic"

//simlint:concurrent -- fixture: one admitted barrier-style function
func declAdmitted(c *atomic.Int64) int64 {
	return c.Add(1)
}

//simlint:concurrent -- fixture: an admitted type holding a wake channel
type declAdmittedType struct {
	wake chan struct{}
}

//simlint:concurrent -- fixture: stale decl carve-out guarding nothing // want `unused concurrent carve-out`
func declStale(a, b int) int {
	return a + b
}

func declUnadmitted(f func()) {
	go f() // want `go statement outside the sim kernel`
}
