//go:build !linux || race

package memory

// imagesMapped reports that images come from the Go heap: the race
// detector watches only Go-heap memory, and other systems take the
// portable path.
const imagesMapped = false

// newImage returns a zeroed n-byte image on the Go heap.
func newImage(_ *NodeMem, n int) []byte { return make([]byte, n) }

// imageCleanup is the handle of an image's unmapping cleanup: there is
// none on the Go heap.
type imageCleanup struct{}

// releaseImage leaves a heap image to the collector.
func releaseImage(*NodeMem) {}

// LiveImages returns the number of mapped node images not yet unmapped:
// none, since nothing is mapped.
func LiveImages() int64 { return 0 }
