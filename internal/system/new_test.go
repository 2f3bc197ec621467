package system

import (
	"testing"

	"nomad/internal/check"
	"nomad/internal/workload"
)

// BenchmarkNew times building a default 8-core machine for each scheme, the
// fixed cost every experiment point pays before its first simulated cycle
// (perfbench reports it as setup_s).
func BenchmarkNew(b *testing.B) {
	spec, _ := workload.ByAbbr("cact")
	for _, s := range AllSchemes() {
		cfg := DefaultConfig()
		cfg.Scheme = s
		b.Run(string(s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newAllocsLimit bounds the heap allocations of one default 8-core NOMAD
// New: 1,881 with Go 1.24, plus a margin of 23 for other toolchains. Most
// of them are the SRAM caches' MSHR fill closures (448) and the metric
// names; the cores' load-completion callbacks are 48 (6 tokens per core). A
// closure per registered counter would add about 850, one per counter of
// the eight TLBs alone 32, and a callback per ROB slot instead of per token
// 1,736.
const newAllocsLimit = 1904

// TestNewAllocs guards machine construction against per-counter closures
// (the registry takes plain counters by reference) and per-slot load
// callbacks (a core builds one per outstanding-load token).
func TestNewAllocs(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	spec, _ := workload.ByAbbr("cact")
	cfg := DefaultConfig()
	var err error
	n := testing.AllocsPerRun(5, func() { _, err = New(cfg, spec) })
	if err != nil {
		t.Fatal(err)
	}
	if n > newAllocsLimit {
		t.Fatalf("New allocates %v times, want at most %d", n, newAllocsLimit)
	}
}
