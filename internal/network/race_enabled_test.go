//go:build race

package network

// raceDetectorEnabled skips the allocation pins: the race detector's
// instrumentation allocates on paths that otherwise allocate nothing.
const raceDetectorEnabled = true
