package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
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
