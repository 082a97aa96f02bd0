//go:build !race

package network

const raceDetectorEnabled = false
