package lint

import "testing"

func TestMapOrderBad(t *testing.T) {
	diags := lintSnippet(t, `package model

import "fmt"

func emit(m map[string]int) []string {
	var out []string
	for k, v := range m { // line 7: calls per iteration
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // line 15: float accumulation
		s += v
	}
	return s
}

func find(m map[string]int) int {
	for _, v := range m { // line 22: early return leaks order
		if v > 0 {
			return v
		}
	}
	return 0
}

func first(m map[uint64]bool) (x uint64) {
	for k := range m { // line 31: the first key yielded wins
		x = k
		break
	}
	return x
}

func firstLabeled(m map[uint64]bool) (x uint64) {
outer:
	for {
		for k := range m { // line 41: break to a label outside the loop
			x = k
			break outer
		}
	}
	return x
}
`, snippetConfig(), nil)
	wantDiags(t, diags,
		[2]any{"maporder", 7},
		[2]any{"maporder", 15},
		[2]any{"maporder", 22},
		[2]any{"maporder", 31},
		[2]any{"maporder", 41},
	)
}

func TestMapOrderGood(t *testing.T) {
	diags := lintSnippet(t, `package model

import "sort"

// Collect-then-sort: the sanctioned idiom.
func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Pure integer reductions are order-insensitive.
func stats(m map[uint64]uint64) (n, maxv uint64) {
	for _, v := range m {
		n += v
		maxv = max(maxv, v)
	}
	return n, maxv
}

// LRU-style victim scan over unique tick values.
func victim(m map[uint64]uint64) uint64 {
	var best, bestTick uint64 = 0, ^uint64(0)
	for k, tick := range m {
		if tick < bestTick {
			best, bestTick = k, tick
		}
	}
	return best
}

// A break bound by an inner loop or switch, or a continue, does not end
// the map iteration.
func counts(m map[uint64][]uint64) (n, odd uint64) {
next:
	for _, vs := range m {
		if len(vs) == 0 {
			continue
		}
		for _, v := range vs {
			if v == 0 {
				break
			}
			if v == 1 {
				continue next
			}
			n++
		}
		switch vs[0] % 2 {
		case 1:
			odd++
			break
		}
	}
	return n, odd
}

// Ranging a slice is always fine.
func total(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
`, snippetConfig(), nil)
	wantDiags(t, diags)
}

func TestMapOrderNonModelExempt(t *testing.T) {
	diags := lintSnippet(t, `package model

func ok() {}
`, snippetConfig(), map[string]map[string]string{
		"m/harness": {"m/harness/h.go": `package harness

import "fmt"

func Emit(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`},
	})
	wantDiags(t, diags)
}
