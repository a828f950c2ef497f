//go:build race

package sql

// raceDetector reports a test binary built with -race, whose allocation
// counts differ from the program's.
const raceDetector = true
