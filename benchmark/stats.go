package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// rateOf is the estimator of eval.edges_per_s from the rates of the chunks a
// run ranked: their 90th percentile, the rate of the run's quietest tenth.
// What a shared host does to a chunk of 15 ms is one-sided - neighbours only
// ever slow it down - so the fast end of the samples is what the program
// does and the rest is what the machine did to it.
func rateOf(rates []float64) float64 { return quantile(rates, rateQuantile) }

// rateSummary words a note on rate samples: the estimate and where the rest lie.
func rateSummary(rates []float64) string {
	return fmt.Sprintf("p%.0f (p10 %.0f, p50 %.0f, p90 %.0f /s)", 100*rateQuantile, quantile(rates, 0.1), median(rates), quantile(rates, 0.9))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, Q2, Q3 the way Python's statistics.quantiles(xs, n=4)
// does (exclusive method), which is what the acceptance spread is defined on.
// Fewer than two values return the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durationsMs converts to milliseconds for quantile reporting.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
