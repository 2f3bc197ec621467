package system

import (
	"testing"

	"nomad/internal/osmem"
	"nomad/internal/workload"
)

// Stress and edge-condition tests: degenerate geometries and pathological
// resource limits must finish and keep invariants, not hang or panic.

func stressSpec() workload.Spec {
	return workload.Spec{
		Name: "stress", Abbr: "st", Class: "Custom",
		FootprintPages: 512, RunBlocks: 8, SeqPageFrac: 0.5,
		GapMean: 4, WriteFrac: 0.5,
	}
}

func runCfg(t *testing.T, cfg Config, spec workload.Spec) *Result {
	t.Helper()
	m, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleCore(t *testing.T) {
	cfg := smallConfig(SchemeNOMAD)
	cfg.Cores = 1
	r := runCfg(t, cfg, stressSpec())
	if r.Cores != 1 || r.IPC <= 0 {
		t.Fatalf("bad result: %v", r)
	}
}

func TestTinyDRAMCacheDirectReclaim(t *testing.T) {
	// A 128-frame DC against a 512-page footprint churns the free queue
	// constantly; the eviction daemon plus direct reclaim must keep up.
	cfg := smallConfig(SchemeNOMAD)
	cfg.CacheFrames = 128
	cfg.Frontend.EvictionLowWater = 16
	cfg.Frontend.EvictionBatch = 32
	cfg.WarmupInstructions = 20_000
	cfg.ROIInstructions = 50_000
	r := runCfg(t, cfg, stressSpec())
	if r.Evictions == 0 {
		t.Fatal("no evictions despite heavy churn")
	}
}

func TestPathologicalBackend(t *testing.T) {
	// One PCSHR, one sub-entry: everything serializes but must complete.
	cfg := smallConfig(SchemeNOMAD)
	cfg.Backend.PCSHRs = 1
	cfg.Backend.SubEntries = 1
	cfg.WarmupInstructions = 20_000
	cfg.ROIInstructions = 40_000
	r := runCfg(t, cfg, stressSpec())
	if r.IPC <= 0 {
		t.Fatalf("bad result: %v", r)
	}
	if r.AvgTagMgmtLatency <= float64(cfg.Frontend.TagMgmtLatency)/2 {
		t.Fatalf("implausible tag latency %.0f with one PCSHR", r.AvgTagMgmtLatency)
	}
}

func TestSinglePageWorkload(t *testing.T) {
	spec := workload.Spec{
		Name: "one", Abbr: "one", Class: "Custom",
		FootprintPages: 1, RunBlocks: 64, GapMean: 3,
	}
	cfg := smallConfig(SchemeTDC)
	cfg.WarmupInstructions = 5_000
	cfg.ROIInstructions = 20_000
	r := runCfg(t, cfg, spec)
	// One page: at most a handful of tag misses, and IPC should be high
	// (everything LLC-resident after warmup).
	if r.TagMisses > 4 {
		t.Fatalf("tag misses = %d for a one-page workload", r.TagMisses)
	}
}

func TestWriteHeavyWorkload(t *testing.T) {
	spec := stressSpec()
	spec.WriteFrac = 0.95
	for _, s := range []SchemeName{SchemeTiD, SchemeNOMAD} {
		cfg := smallConfig(s)
		cfg.WarmupInstructions = 20_000
		cfg.ROIInstructions = 40_000
		r := runCfg(t, cfg, spec)
		if r.IPC <= 0 {
			t.Fatalf("%s: degenerate result %v", s, r)
		}
	}
}

func TestBurstyWorkloadCompletes(t *testing.T) {
	spec := stressSpec()
	spec.BurstPeriodOps = 500
	spec.BurstDuty = 0.2
	spec.QuietGapMult = 20
	cfg := smallConfig(SchemeNOMAD)
	r := runCfg(t, cfg, spec)
	if r.IPC <= 0 {
		t.Fatalf("bad result: %v", r)
	}
}

func TestWarmupExcludedFromResult(t *testing.T) {
	cfg := smallConfig(SchemeBaseline)
	cfg.WarmupInstructions = 50_000
	cfg.ROIInstructions = 50_000
	m, err := New(cfg, stressSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles >= m.Engine().Now() {
		t.Fatalf("ROI cycles %d should exclude warmup (engine at %d)", r.Cycles, m.Engine().Now())
	}
	perCore := r.Instructions / uint64(cfg.Cores)
	if perCore < cfg.ROIInstructions {
		t.Fatalf("ROI retired %d per core, want >= %d", perCore, cfg.ROIInstructions)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallConfig(SchemeNOMAD)
	cfg.Cores = 0
	if _, err := New(cfg, stressSpec()); err == nil {
		t.Fatal("zero cores accepted")
	}
	// One core past the width of the OS's per-frame TLB directory would
	// lose that core's residency bits.
	cfg.Cores = osmem.MaxCores + 1
	if _, err := New(cfg, stressSpec()); err == nil {
		t.Fatalf("%d cores accepted", cfg.Cores)
	}
	// nomadsim's -pcshrs reaches the back-end only through New.
	cfg = smallConfig(SchemeNOMAD)
	cfg.Backend.PCSHRs = 1 << 50
	if _, err := New(cfg, stressSpec()); err == nil {
		t.Fatalf("%d PCSHRs accepted", cfg.Backend.PCSHRs)
	}
	cfg = smallConfig("Bogus")
	if _, err := New(cfg, stressSpec()); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestROITimeout(t *testing.T) {
	cfg := smallConfig(SchemeBaseline)
	cfg.MaxCycles = 10 // impossible budget
	m, err := New(cfg, stressSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("impossible cycle budget did not error")
	}
}

func TestMLPOverride(t *testing.T) {
	spec := stressSpec()
	spec.FootprintPages = 8192
	spec.GapMean = 2
	run := func(mlp int) float64 {
		s := spec
		s.MLP = mlp
		cfg := smallConfig(SchemeIdeal)
		cfg.WarmupInstructions = 20_000
		cfg.ROIInstructions = 40_000
		return runCfg(t, cfg, s).IPC
	}
	low, high := run(1), run(6)
	if high <= low {
		t.Fatalf("MLP 6 IPC %.3f should beat MLP 1 %.3f on a streaming workload", high, low)
	}
}
