package system

import (
	"testing"

	"nomad/internal/workload"
)

// pinnedBenchConfig is the configuration of the four benchmark workloads:
// DefaultConfig with the workload's scheme, seed 1, 300k warmup and 400k
// measured instructions per core.
func pinnedBenchConfig(scheme SchemeName) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.WarmupInstructions = 300_000
	cfg.ROIInstructions = 400_000
	cfg.Seed = 1
	return cfg
}

// tidEvictConfig shrinks TiD's tag store to 256 frames (256 sets) and the
// LLC to 256 sets, so the streaming test workload fills every set and
// evicts dirty lines; none of the benchmark runs writes back a TiD line.
func tidEvictConfig() Config {
	cfg := smallConfig(SchemeTiD)
	cfg.CacheFrames = 256
	cfg.LLC.Sets = 256
	return cfg
}

// tdcEvictConfig puts TDC on a 512-frame DRAM cache under evictSpec's
// footprint, so its eviction daemon reclaims frames and copies dirty
// victims back; no benchmark run or per-scheme row evicts a TDC frame.
func tdcEvictConfig() Config {
	cfg := smallConfig(SchemeTDC)
	cfg.CacheFrames = 512
	return cfg
}

// evictSpec is smallSpec with a footprint of 16 times a 512-frame DRAM
// cache and a warm set of six times it, so a 512-frame cache keeps its
// eviction daemon working.
func evictSpec() workload.Spec {
	spec := smallSpec()
	spec.FootprintPages, spec.WarmPages, spec.WarmFrac = 8192, 3072, 0.7
	return spec
}

// TestPinnedDigests pins the model's output. The byte-identity suites
// compare variants inside one tree, so a model edit in code every variant
// shares (Core.Tick, say) passes all of them. The first four rows are the
// benchmark configurations with digests on, and each final digest must
// equal the one recorded in perfbench/baseline; a deliberate model change
// updates both. The other rows pin paths the benchmark does not run. TiD
// replacement writes back dirty victims, so a change to TiD's victim choice
// or dirty tracking moves its digest. The area-optimized back-end and the
// 64-frame NOMAD and Ideal caches are TestEngineByteIdentical's rows: a
// change there that every run of one process makes alike, such as a
// goroutine race that resolves the same way each time, passes that test
// but moves these digests. The 512-frame TDC row runs the blocking
// front-end's eviction daemon and its dirty-page writeback copies.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 8-core benchmark simulations")
	}
	bench := func(abbr string) workload.Spec {
		spec, ok := workload.ByAbbr(abbr)
		if !ok {
			t.Fatalf("no workload %q", abbr)
		}
		return spec
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		spec   workload.Spec
		digest string
		// nonzero names a counter the run must move, if any.
		nonzero string
	}{
		{"nomad-cact", pinnedBenchConfig(SchemeNOMAD), bench("cact"), "c7828682e8a076db", ""},
		{"tdc-cact", pinnedBenchConfig(SchemeTDC), bench("cact"), "cbdb73c2a0a3aa2e", ""},
		{"tid-mcf", pinnedBenchConfig(SchemeTiD), bench("mcf"), "eb24c8aa920ab3b8", ""},
		{"nomad-lbm", pinnedBenchConfig(SchemeNOMAD), bench("lbm"), "5cf7330490027ee4", ""},
		{"tid-writebacks", tidEvictConfig(), smallSpec(), "02ad66a575d0679b", "scheme.tid.writebacks"},
		{"nomad-area", areaConfig(), smallSpec(), "168ce250b3052d16", "backend.buffer_wait_sum"},
		{"nomad-64frames", tinyConfig(SchemeNOMAD), smallSpec(), "c38f6eb26f5b1dd4", "frontend.forced_shootdowns"},
		{"ideal-64frames", tinyConfig(SchemeIdeal), smallSpec(), "4cbeaa6041b14ed9", "scheme.tag_misses"},
		{"tdc-512frames", tdcEvictConfig(), evictSpec(), "4bad82594c94bc0b", "frontend.dirty_evictions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Digests = true
			m, err := New(tc.cfg, tc.spec)
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
			if tc.nonzero != "" && r.Metrics.Counter(tc.nonzero) == 0 {
				t.Errorf("%s is 0", tc.nonzero)
			}
		})
	}
}
