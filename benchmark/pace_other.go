//go:build !unix

package main

import "time"

// sleepUntil blocks until t, at time.Sleep's precision.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
