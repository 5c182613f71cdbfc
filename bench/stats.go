package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even); 0
// for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// `bench compare` and the driver agree on a spread. Fewer than two values
// have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile reads the p-th percentile (0..100) of an ascending slice by
// nearest rank.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	return asc[max(0, min(i, len(asc)-1))]
}

// geomean is the geometric mean of positive values; 0 when any value is
// not positive (a ratio that could not be measured).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
