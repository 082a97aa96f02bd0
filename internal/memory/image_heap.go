//go:build !linux || race

package memory

// imagesMapped reports that images come from the Go heap: the race
// detector watches only Go-heap memory, and other systems take the
// portable path.
const imagesMapped = false

// newImage returns a zeroed n-byte image on the Go heap.
func newImage(_ *NodeMem, n int) []byte { return make([]byte, n) }

// liveImageCount returns the number of mapped images not yet unmapped:
// none, since nothing is mapped.
func liveImageCount() int64 { return 0 }
