//go:build !race

package httpcdn

const raceEnabled = false
