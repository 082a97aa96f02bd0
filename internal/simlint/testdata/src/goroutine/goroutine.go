// Package goroutine is a simlint fixture: concurrency-primitive cases
// for the one-thread-of-control analyzer.
package goroutine

import (
	"iter"
	"sync"
	"sync/atomic"
)

func spawn(f func()) {
	go f() // want `go statement outside the sim kernel`
}

var pipe chan int // want `channel type outside the sim kernel`

func mkpipe() {
	pipe = make(chan int, 1) // want `channel type outside the sim kernel`
}

func locked(mu *sync.Mutex) { // want `sync.Mutex introduces a sync primitive`
	mu.Lock() // want `sync.Lock introduces a sync primitive`
}

func count(c *int64) int64 {
	return atomic.AddInt64(c, 1) // want `atomic.AddInt64 introduces a sync primitive`
}

func wait() {
	select {} // want `select statement outside the sim kernel`
}

func coroutine(seq iter.Seq[int]) {
	_, stop := iter.Pull(seq) // want `iter.Pull creates a coroutine outside the sim kernel`
	stop()
}

func coroutine2(seq iter.Seq2[int, int]) { // iter.Seq2 itself is only a function type
	_, stop := iter.Pull2(seq) // want `iter.Pull2 creates a coroutine outside the sim kernel`
	stop()
}

// arithmetic uses no concurrency; nothing to flag.
func arithmetic(a, b int) int {
	return a + b
}
