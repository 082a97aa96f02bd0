package main

import "time"

// Drift correction. The benchmark runs on a few cores of a shared host
// whose speed moves by up to 1.5x over minutes (neighbours on the same
// sockets; the guest sees no steal time), so the median of the passes
// of one ten-second run moves with the minute the run happened in, and
// no statistic over that run removes it. The calibration kernel is a
// fixed amount of work that uses nothing of the repository: a binary
// heap of LCG keys, 32 KB, all branches and dependent compares, like
// the simulator's event queue. It runs before and after every set-up
// and every timed pass, and a duration is reported as
//
//	raw * calibRef / mean(kernel before, kernel after)
//
// that is, in seconds of a host on which the kernel takes calibRef: the
// reference host when it is quiet. Measured on the reference host over
// 40 runs spread over 10 minutes, the quartile spread of a run's median
// wall time fell from 12-16 % raw to 5.5-7 % corrected on every workload;
// a memory-latency walk and an allocation ring were tried beside the heap
// and tracked worse (7-10 % and 11-26 %), so the kernel is the heap alone.
//
// A change to the repository cannot move the kernel, so a gain or a
// regression moves the corrected time exactly as it moves the raw one.
const (
	calibOps = 1_500_000
	calibRef = 50 * time.Millisecond
)

var calibSink uint64

// calibrate does the fixed work once and returns how long it took.
func calibrate() time.Duration {
	t0 := time.Now()
	var heap [4096]uint64
	n := 0
	x := uint64(2463534242)
	var acc uint64
	for op := 0; op < calibOps; op++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Push three times in four until the heap is full, then hold it
		// there: every operation sifts through all twelve levels.
		if n < len(heap) && (x>>62 != 0 || n == 0) {
			i := n
			heap[i] = x >> 8
			n++
			for i > 0 && heap[(i-1)/2] > heap[i] {
				heap[(i-1)/2], heap[i] = heap[i], heap[(i-1)/2]
				i = (i - 1) / 2
			}
			continue
		}
		acc += heap[0]
		n--
		heap[0] = heap[n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && heap[l] < heap[m] {
				m = l
			}
			if l+1 < n && heap[l+1] < heap[m] {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[m], heap[i] = heap[i], heap[m]
			i = m
		}
	}
	calibSink += acc
	return time.Since(t0)
}

// drift corrects durations measured back to back: each is bracketed by
// the calibration before it (the one after the previous duration) and
// the one after it.
type drift struct {
	last time.Duration
}

func newDrift() *drift {
	calibrate() // page in and warm the kernel itself
	return &drift{last: calibrate()}
}

// correct is called right after the measured interval ends.
func (d *drift) correct(raw time.Duration) float64 {
	now := calibrate()
	mean := (d.last + now) / 2
	d.last = now
	return raw.Seconds() * calibRef.Seconds() / mean.Seconds()
}
