//go:build !unix

package main

// rusage is not available here; the rows that use it read 0.
func rusage() (cpuSeconds float64, faults, involuntary int64) { return 0, 0, 0 }
