package system

import (
	"strings"
	"testing"

	"nomad/internal/workload"
)

// smallConfig returns a fast configuration for tests.
func smallConfig(scheme SchemeName) Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scheme = scheme
	cfg.CacheFrames = 2048 // 8 MB DC
	cfg.WarmupInstructions = 60_000
	cfg.ROIInstructions = 120_000
	cfg.MaxCycles = 80_000_000
	return cfg
}

// smallSpec scales a workload down to the test DC size.
func smallSpec() workload.Spec {
	return workload.Spec{
		Name: "test-stream", Abbr: "ts", Class: "Excess",
		FootprintPages: 4096,
		RunBlocks:      64, SeqPageFrac: 0.9,
		GapMean: 8, WriteFrac: 0.25,
	}
}

func runScheme(t *testing.T, scheme SchemeName) *Result {
	t.Helper()
	m, err := New(smallConfig(scheme), smallSpec())
	if err != nil {
		t.Fatalf("New(%s): %v", scheme, err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("Run(%s): %v", scheme, err)
	}
	return r
}

func TestAllSchemesComplete(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r := runScheme(t, s)
			if r.IPC <= 0 {
				t.Fatalf("IPC = %v, want > 0", r.IPC)
			}
			if r.Cycles == 0 || r.Instructions == 0 {
				t.Fatalf("empty ROI: %+v", r)
			}
			t.Logf("%s", r)
		})
	}
}

// TestNewRejectsRingDepthOutOfRange: New refuses a negative ring depth, or
// one beyond MaxRingDepth, with an error instead of building the machine
// and its rings.
func TestNewRejectsRingDepthOutOfRange(t *testing.T) {
	for _, tel := range []Telemetry{
		{TraceDepth: -1}, {SpanDepth: -1},
		{TraceDepth: MaxRingDepth + 1}, {SpanDepth: MaxRingDepth + 1},
	} {
		cfg := smallConfig(SchemeNOMAD)
		cfg.Telemetry = tel
		m, err := New(cfg, smallSpec())
		if err == nil || m != nil || !strings.Contains(err.Error(), "depth") {
			t.Errorf("New with %+v = (%v, %v), want a depth error", tel, m != nil, err)
		}
	}
}

func TestSchemeOrderingOnStreaming(t *testing.T) {
	// On a streaming workload with footprint >> DC, the paper's ordering
	// must hold: Ideal >= NOMAD > TDC, and every DC scheme >= ~Baseline.
	res := map[SchemeName]*Result{}
	for _, s := range AllSchemes() {
		res[s] = runScheme(t, s)
	}
	if res[SchemeIdeal].IPC < res[SchemeNOMAD].IPC*0.98 {
		t.Errorf("Ideal IPC %.3f should be >= NOMAD %.3f", res[SchemeIdeal].IPC, res[SchemeNOMAD].IPC)
	}
	if res[SchemeNOMAD].IPC <= res[SchemeTDC].IPC {
		t.Errorf("NOMAD IPC %.3f should beat blocking TDC %.3f on an Excess-class stream",
			res[SchemeNOMAD].IPC, res[SchemeTDC].IPC)
	}
	for _, s := range AllSchemes() {
		t.Logf("%-8s IPC=%.3f dc=%.0fcyc osStall=%.1f%% tagLat=%.0f bufHit=%.2f",
			s, res[s].IPC, res[s].AvgDCAccessTime, 100*res[s].OSStallRatio,
			res[s].AvgTagMgmtLatency, res[s].BufferHitRate)
	}
}

func TestPCSHRScaling(t *testing.T) {
	// Fig. 12's premise: with one PCSHR, miss handling serializes and tag
	// management queues; more PCSHRs monotonically-ish improve things.
	run := func(n int) *Result {
		cfg := smallConfig(SchemeNOMAD)
		cfg.Backend.PCSHRs = n
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, sixteen := run(1), run(16)
	if one.AvgTagMgmtLatency <= sixteen.AvgTagMgmtLatency {
		t.Errorf("tag latency with 1 PCSHR (%.0f) should exceed 16 PCSHRs (%.0f)",
			one.AvgTagMgmtLatency, sixteen.AvgTagMgmtLatency)
	}
	if one.IPC > sixteen.IPC*1.02 {
		t.Errorf("IPC with 1 PCSHR (%.3f) should not beat 16 (%.3f)", one.IPC, sixteen.IPC)
	}
}

func TestDistributedBackendComparable(t *testing.T) {
	// Fig. 16: FIFO allocation spreads commands uniformly, so distributed
	// back-ends perform close to centralized.
	run := func(dist bool) *Result {
		cfg := smallConfig(SchemeNOMAD)
		cfg.Backend.PCSHRs = 16
		cfg.Backend.Distributed = dist
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	c, d := run(false), run(true)
	ratio := d.IPC / c.IPC
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("distributed/centralized IPC = %.3f, want ~1.0", ratio)
	}
}

func TestFig7LatencyOrdering(t *testing.T) {
	// Fig. 7a: in the (hit,hit) case OS-managed schemes see near-ideal DC
	// access time while the HW-based scheme pays for metadata traffic.
	// Compare on a reuse-heavy workload where most accesses are data hits.
	reuse := workload.Spec{
		Name: "reuse", Abbr: "ru", Class: "Few",
		FootprintPages: 4096, RunBlocks: 16, SeqPageFrac: 0.3,
		GapMean: 10, WriteFrac: 0.2,
		WarmPages: 512, WarmFrac: 0.97,
	}
	run := func(s SchemeName) *Result {
		cfg := smallConfig(s)
		m, err := New(cfg, reuse)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	nomad, tid, ideal := run(SchemeNOMAD), run(SchemeTiD), run(SchemeIdeal)
	if nomad.AvgDCAccessTime > ideal.AvgDCAccessTime*1.3 {
		t.Errorf("NOMAD DC access %.0f not near ideal %.0f on a data-hit workload",
			nomad.AvgDCAccessTime, ideal.AvgDCAccessTime)
	}
	if tid.AvgDCAccessTime < nomad.AvgDCAccessTime {
		t.Errorf("TiD DC access %.0f should exceed OS-managed %.0f (metadata bandwidth)",
			tid.AvgDCAccessTime, nomad.AvgDCAccessTime)
	}
}

func TestBufferHitRateHighOnReuseWorkload(t *testing.T) {
	// §III-E / §IV-B.5: on low-RMHB workloads nearly all data misses are
	// the faulting access replaying after tag management, and
	// critical-data-first has already fetched that sub-block.
	spec := workload.Spec{
		Name: "few", Abbr: "fw", Class: "Few",
		FootprintPages: 4096, RunBlocks: 16, SeqPageFrac: 0.3,
		GapMean: 12, WriteFrac: 0.1,
		WarmPages: 512, WarmFrac: 0.96,
	}
	cfg := smallConfig(SchemeNOMAD)
	m, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DataMisses > 0 && r.BufferHitRate < 0.5 {
		t.Errorf("buffer hit rate %.2f on a Few-class workload, want high", r.BufferHitRate)
	}
}

func TestVerifyLatencyCost(t *testing.T) {
	// §IV-B.5: one cycle of verification latency costs ~0.1%.
	run := func(v uint64) *Result {
		cfg := smallConfig(SchemeNOMAD)
		cfg.Backend.VerifyLatency = v
		m, err := New(cfg, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	zero, one := run(0), run(1)
	if drop := 1 - one.IPC/zero.IPC; drop > 0.03 {
		t.Errorf("1-cycle verification cost %.1f%% IPC, want ~0.1%%", 100*drop)
	}
}

func TestNOMADStallsBelowTDC(t *testing.T) {
	n := runScheme(t, SchemeNOMAD)
	d := runScheme(t, SchemeTDC)
	if n.OSStallRatio >= d.OSStallRatio {
		t.Errorf("NOMAD stall ratio %.3f should be below TDC %.3f", n.OSStallRatio, d.OSStallRatio)
	}
}

// TestParseScheme: every evaluated scheme parses to itself, and anything
// else, a case variant or the empty name included, is an error naming the
// input and every valid scheme.
func TestParseScheme(t *testing.T) {
	for _, s := range AllSchemes() {
		if got, err := ParseScheme(string(s)); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %q, %v", s, got, err)
		}
	}
	for _, bad := range []string{"Bogus", "nomad", ""} {
		_, err := ParseScheme(bad)
		if err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
			continue
		}
		msg := err.Error()
		for _, want := range []string{`"` + bad + `"`, "Baseline, TiD, TDC, NOMAD, Ideal"} {
			if !strings.Contains(msg, want) {
				t.Errorf("ParseScheme(%q) error %q lacks %q", bad, msg, want)
			}
		}
	}
}
