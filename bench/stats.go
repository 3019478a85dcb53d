package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is a reported value with the per-round (or per-cycle) values it
// was taken from, and how far those disagreed.
type spread struct {
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

// medianOfRounds reports the median of one value per round.
func medianOfRounds(rounds []float64) spread {
	s := spread{Value: median(rounds), Min: math.Inf(1), Max: math.Inf(-1), Rounds: rounds}
	for _, r := range rounds {
		s.Min = math.Min(s.Min, r)
		s.Max = math.Max(s.Max, r)
	}
	return s
}

// single is a spread of one measurement.
func single(v float64) spread { return medianOfRounds([]float64{v}) }

// pool concatenates per-round samples.
func pool(rounds [][]float64) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r...)
	}
	return all
}
