package lint

import "testing"

func TestFloatClockBad(t *testing.T) {
	diags := lintSnippet(t, `package model

import "time"

func eta(frac float64, elapsed uint64) uint64 {
	rem := float64(elapsed) * (1 - frac) / frac
	return uint64(rem) // line 7: float -> integer
}

func stretch(f float64) time.Duration {
	return time.Duration(f * 1e9) // line 11: float -> integer-kind named type
}
`, snippetConfig(), nil)
	wantDiags(t, diags,
		[2]any{"floatclock", 7},
		[2]any{"floatclock", 11},
	)
}

func TestFloatClockGood(t *testing.T) {
	diags := lintSnippet(t, `package model

// Integer-to-float for reporting is fine; so are constant conversions.
func rate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

const budget = uint64(1e6)

func scale(c uint64) uint64 { return c * 2 }
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestFloatClockMetricsExempt(t *testing.T) {
	diags := lintSnippet(t, `package model

func ok() {}
`, Config{ModelPackages: []string{"model", "internal/metrics"}},
		map[string]map[string]string{
			"m/internal/metrics": {"metrics.go": `package metrics

func Percentile(samples []float64, p float64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	return uint64(samples[int(p*float64(len(samples)-1))])
}
`},
		})
	wantDiags(t, diags)
}
