package memory

// ImagesMapped reports whether node images come from anonymous mappings
// (Linux without the race detector) rather than the Go heap.
const ImagesMapped = imagesMapped

// LiveImages returns the number of mapped node images not yet unmapped.
func LiveImages() int64 { return liveImageCount() }
