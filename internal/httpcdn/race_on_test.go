//go:build race

package httpcdn

const raceEnabled = true
