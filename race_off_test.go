//go:build !race

package perm

const raceDetector = false
