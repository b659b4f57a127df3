//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open-loop generator paces sub-millisecond
// gaps, and time.Sleep rounds an idle processor's wake-up up to a whole
// millisecond; nanosleep on the calling thread wakes within the kernel's
// timer slack (tens of microseconds) without spinning.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// EINTR just means waking early: the loop sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
