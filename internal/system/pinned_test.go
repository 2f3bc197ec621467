package system

import (
	"testing"

	"nomad/internal/workload"
)

// TestPinnedDigests pins the model's output. The byte-identity suites
// compare variants inside one tree, so a model edit in code every variant
// shares (Core.Tick, say) passes all of them. This runs the four benchmark
// configurations — DefaultConfig with the workload's scheme, seed 1, 300k
// warmup and 400k measured instructions per core, digests on — and requires
// each final digest to equal the one recorded in perfbench/baseline. A
// deliberate model change updates both.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 8-core benchmark simulations")
	}
	for _, tc := range []struct {
		name   string
		scheme SchemeName
		abbr   string
		digest string
	}{
		{"nomad-cact", SchemeNOMAD, "cact", "c7828682e8a076db"},
		{"tdc-cact", SchemeTDC, "cact", "cbdb73c2a0a3aa2e"},
		{"tid-mcf", SchemeTiD, "mcf", "eb24c8aa920ab3b8"},
		{"nomad-lbm", SchemeNOMAD, "lbm", "5cf7330490027ee4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := workload.ByAbbr(tc.abbr)
			if !ok {
				t.Fatalf("no workload %q", tc.abbr)
			}
			cfg := DefaultConfig()
			cfg.Scheme = tc.scheme
			cfg.WarmupInstructions = 300_000
			cfg.ROIInstructions = 400_000
			cfg.Seed = 1
			cfg.Digests = true
			m, err := New(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Metrics.Digests.Final(); got != tc.digest {
				t.Errorf("final digest %s, want %s", got, tc.digest)
			}
		})
	}
}
