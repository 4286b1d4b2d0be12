package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1,000 samples, a p50 at least 20.
const minTail = 10

// Percentile is one reported order statistic with the sample count it came
// from.
type Percentile struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses a percentile that has
// fewer than minTail samples beyond it, so a tail figure is never read off
// a handful of requests.
func percentile(xs []float64, p float64) (Percentile, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return Percentile{}, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	if beyond := float64(n) * (100 - p) / 100; beyond < minTail {
		return Percentile{}, fmt.Errorf("p%v of %d samples has %.1f beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	v := s[lo]
	if hi < n {
		v += (s[hi] - s[lo]) * (rank - float64(lo))
	}
	return Percentile{P: p, Value: v, N: n}, nil
}

// median is the middle value of xs (the mean of the middle two for an even
// count); it is used for repeated set-up timings, where the sample is small
// by design and no tail is claimed. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var metricNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to figures.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit string) {
	m[name] = Metric{Value: v, Unit: unit}
}

// validate checks every name against the benchmark contract's name rule
// and refuses non-finite values.
func (m Metrics) validate() error {
	for name, v := range m {
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricNameRe)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}
