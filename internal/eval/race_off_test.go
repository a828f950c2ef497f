//go:build !race

package eval

const raceDetector = false
