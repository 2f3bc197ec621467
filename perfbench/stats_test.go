package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) from Python 3.
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		s := summarize("ns", c.data)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.data) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v %d",
				c.data, s.Q1, s.Median, s.Q3, s.N, c.q1, c.m, c.q3, len(c.data))
		}
	}
	if s := summarize("ns", nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
	in := []float64{3, 1, 2}
	summarize("ns", in)
	if in[0] != 3 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestCalibratedScalesByKernel(t *testing.T) {
	if got := calibrated(100, calNominalS); got != 100 {
		t.Errorf("kernel at nominal: got %v, want 100", got)
	}
	// A host running the kernel 25% slow ran the simulator slow too.
	if got := calibrated(125, 1.25*calNominalS); math.Abs(got-100) > 1e-9 {
		t.Errorf("slow host: got %v, want 100", got)
	}
	if got := calibrated(100, 0); got != 100 {
		t.Errorf("no kernel time: got %v, want the raw value", got)
	}
}
