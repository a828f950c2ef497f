//go:build !race

package sql

const raceDetector = false
