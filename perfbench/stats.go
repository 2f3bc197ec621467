package main

import "sort"

// summary is one metric's samples reduced to what the report prints: the
// reported value, the median and the quartiles around it, with the sample
// count. With the few samples a run takes, no tail percentile has ten
// samples beyond it, so none is reported.
type summary struct {
	Unit string `json:"unit"`
	// Value is the reported value: the median, except for the end-to-end
	// timings, which report the fastest rep (see measureEndToEnd).
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize computes the quartiles the same way as Python's
// statistics.quantiles(data, n=4) (the "exclusive" method), so the numbers
// here and any spread computed from a set of runs agree. One sample is its
// own median and quartiles.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	if len(v) == 1 {
		s.Q1, s.Median, s.Q3, s.Value = v[0], v[0], v[0], v[0]
		return s
	}
	m := len(v) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(v)-1 {
			j = len(v) - 1
		}
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	s.Value = s.Median
	return s
}

// calibrated scales a host time by the reference kernel: raw is what the
// run measured, kernel the kernel's time around it. A host running slow
// inflates both, and the ratio cancels it.
func calibrated(raw, kernel float64) float64 {
	if kernel <= 0 {
		return raw
	}
	return raw * calNominalS / kernel
}
