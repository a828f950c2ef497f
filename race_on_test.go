//go:build race

package perm

// raceDetector reports a test binary built with -race, whose allocations are
// larger than the program's.
const raceDetector = true
