//go:build linux && !race

//simlint:concurrent -- cleanups run on the runtime's cleanup goroutine, so the count of live images they decrement is atomic; nothing simulated reads it

package memory

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// imagesMapped reports that images come from anonymous mappings.
const imagesMapped = true

// liveImages counts the mapped images not yet unmapped.
var liveImages atomic.Int64

// newImage returns a zeroed n-byte image for owner: an anonymous
// private mapping whose pages the kernel zero-fills on first touch,
// unmapped by a cleanup once owner is unreachable. A failed mapping
// falls back to the Go heap.
func newImage(owner *NodeMem, n int) []byte {
	data, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, n)
	}
	liveImages.Add(1)
	owner.unmap = runtime.AddCleanup(owner, unmapImage, data)
	return data
}

// imageCleanup is the handle of the cleanup that unmaps a node's image,
// zero when the image fell back to the Go heap.
type imageCleanup = runtime.Cleanup

// releaseImage unmaps m's image now, if it is mapped, and stops the
// cleanup that would have. m stays reachable across Stop, as Stop needs.
func releaseImage(m *NodeMem) {
	if m.data == nil || m.unmap == (runtime.Cleanup{}) {
		return
	}
	m.unmap.Stop()
	unmapImage(m.data)
	m.data, m.unmap = nil, runtime.Cleanup{}
}

// LiveImages returns the number of mapped node images not yet unmapped.
func LiveImages() int64 { return liveImages.Load() }

func unmapImage(data []byte) {
	if err := syscall.Munmap(data); err != nil {
		panic("memory: unmapping a node image: " + err.Error())
	}
	liveImages.Add(-1)
}
