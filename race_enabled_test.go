//go:build race

package hpfdsm_test

// raceDetectorEnabled shrinks the heaviest corpus groups of the
// composition property to representative subsets when the race
// detector is on: instrumentation slows the 64-node runs roughly an
// order of magnitude, and the full groups already run race-free in
// `go test ./...` and the CI scale job. The race detector's actual
// concern — the sim kernel's coroutine switches — is still exercised by
// the subset that remains.
const raceDetectorEnabled = true
