package runtime

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"
	"time"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
)

// A Result reads the final arrays out of the node images after the run,
// so it must keep them alive: with only the Result held and the images
// outside the Go heap, collections in between must not release them.
func TestResultKeepsImagesAlive(t *testing.T) {
	a := apps.Jacobi()
	want := a.Reference(a.ScaledParams)
	for _, backend := range []Backend{SharedMemory, MessagePassing} {
		res := func() *Result {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		for range 3 {
			goruntime.GC()
			time.Sleep(time.Millisecond) // cleanups run on their own goroutine
		}
		for _, name := range a.CheckArrays {
			got := res.ArrayData(name)
			if d := maxAbsDiff(got, want[name]); len(got) != len(want[name]) || d > a.Tol {
				t.Errorf("backend %v: %s differs from the reference by %g after collections", backend, name, d)
			}
		}
	}
}

// An aborted recovery attempt gives its node images back at teardown,
// not at some later collection: with collection off, a crash-recovery
// Run leaves only its final attempt's images mapped. The test first
// waits until every earlier test's images are unmapped, so nothing else
// moves the count; it must not run in parallel with other tests.
func TestAbortedAttemptReleasesImages(t *testing.T) {
	if !memory.ImagesMapped {
		t.Skip("images come from the Go heap in this build")
	}
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for memory.LiveImages() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d images of earlier tests still mapped after 10 s", memory.LiveImages())
		}
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mc := config.Default().WithFaults(config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}})
	res, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("%d recoveries, want the 1 the crash forces", res.Recoveries)
	}
	if got := memory.LiveImages(); got != int64(mc.Nodes) {
		t.Errorf("%d images mapped after a run that recovered once on %d nodes; want only the final attempt's %d", got, mc.Nodes, mc.Nodes)
	}
	goruntime.KeepAlive(res)
}

// The free lists a Run leaves for the next pin nothing of its machine:
// after two Runs and nothing held, collections unmap every image, those
// of tests that ran earlier included. Each Run recovers from a crash,
// so its aborted attempt leaves messages in flight that never return
// to a list; one still referenced from the slot its pop left, or a
// free message that kept its network, would keep that network, and so
// every node image, alive.
func TestKeptPoolsPinNoImages(t *testing.T) {
	if !memory.ImagesMapped {
		t.Skip("images come from the Go heap in this build")
	}
	a := apps.Jacobi()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithFaults(config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}})
	for range 2 {
		if _, err := Run(prog, Options{Machine: mc, Opt: compiler.OptRTElim}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for memory.LiveImages() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d images still mapped 10 s after two Runs", memory.LiveImages())
		}
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
}
