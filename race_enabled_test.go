//go:build race

package hpfdsm_test

// raceDetectorEnabled gates the heaviest differential matrices down to
// representative subsets when the race detector is on: instrumentation
// slows the 64-node runs roughly an order of magnitude, and the full
// matrices already run race-free in `go test ./...` and the CI scale
// job. The race detector's actual concern — the sim kernel's coroutine
// switches and the PDES window coordinator — is still exercised by the
// subset that remains.
const raceDetectorEnabled = true
