//go:build unix

package main

import "syscall"

// rusage returns the process's CPU seconds, page faults and involuntary
// context switches so far.
func rusage() (cpuSeconds float64, faults, involuntary int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Minflt + ru.Majflt), int64(ru.Nivcsw)
}
