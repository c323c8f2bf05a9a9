//go:build linux

package main

import (
	"syscall"
	"time"
)

// The Go runtime rounds a sleeping goroutine's wake-up to its netpoller's
// millisecond when the process is otherwise idle: time.Sleep overshoots a
// sub-millisecond wait by half a millisecond at the median, several times
// the latency the open loop is there to measure. The kernel's own
// nanosleep, with the calling thread's timer slack taken down from the
// default 50 µs, wakes within a few tens of microseconds.

const (
	prSetTimerSlack = 29 // PR_SET_TIMERSLACK
	// preciseWindow is the last stretch of a wait spent in nanosleep; the
	// part before it is a goroutine sleep, which holds no thread.
	preciseWindow = 1200 * time.Microsecond
)

// sleepUntil returns at t, or at once when t has passed.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if d > preciseWindow+300*time.Microsecond {
		time.Sleep(d - preciseWindow)
	}
	// The slack belongs to the thread, and the goroutine may sit on a
	// different one each time: set it before every sleep (one cheap call).
	// A failure only leaves the default slack, which gen.late_p99_ms shows.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}
