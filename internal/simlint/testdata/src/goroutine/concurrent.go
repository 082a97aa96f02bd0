//simlint:concurrent -- fixture: a scheduler-style file admitted to the concurrency carve-out

// concurrent.go carries the file-wide //simlint:concurrent annotation:
// the same primitives that fail goroutine.go produce no findings here,
// and the in-use annotation is counted in the result summary.
package goroutine

import (
	"iter"
	"sync"
)

func admittedSpawn(f func()) {
	go f()
}

var admittedPipe chan int

func admittedLocked(mu *sync.Mutex) {
	mu.Lock()
}

func admittedWait() {
	select {}
}

func admittedCoroutine(seq iter.Seq[int]) {
	_, stop := iter.Pull(seq)
	stop()
}
