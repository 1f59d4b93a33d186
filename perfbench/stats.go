package main

import "sort"

// median of vals (0 for none). vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples the reported tail percentile must
// leave above it.
const tailBeyond = 10

// tail returns the highest percentile of vals with at least tailBeyond
// samples above it: the value at rank n-tailBeyond-1 of the sorted
// samples, that rank as a percentile, and the number of samples above
// it. With too few samples it returns the maximum.
func tail(vals []float64) (value, pct float64, beyond int) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := n - tailBeyond - 1
	if k < 0 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n), n - k - 1
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
