package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"nomad/internal/metrics"
	"nomad/internal/sim"
	"nomad/internal/workload"
)

// TestEngineByteIdentical is the scheduler-swap correctness contract: for
// every scheme, with fast-forward both on and off, a run on the timing-wheel
// engine must produce byte-for-byte the same metrics snapshot (counters,
// timeline, trace summary) and the same Perfetto trace as the same run on
// the binary-heap oracle, and the wheel runs with fast-forward on and off
// must agree too: each row pins the full 2x2 engine/fast-forward matrix to
// one observable behaviour. The rows after the per-scheme ones cover paths
// the default config never runs, so that a map-order or goroutine defect on
// any path an experiment reaches makes some row diverge: selective caching
// under eviction pressure, TDC's eviction daemon, the distributed back-end,
// the area-optimized back-end with the ablation knobs, and a DRAM cache so
// small that NOMAD falls back to direct reclaim and forced shootdowns and
// Ideal evicts.
func TestEngineByteIdentical(t *testing.T) {
	// floor is a counter the row's path drives past min.
	type floor struct {
		name string
		min  uint64
	}
	type row struct {
		name string
		cfg  Config
		spec workload.Spec
		ran  []floor // counters that prove the row's path ran
	}
	nonZero := func(names ...string) []floor {
		fs := make([]floor, len(names))
		for i, n := range names {
			fs[i] = floor{n, 0}
		}
		return fs
	}
	var rows []row
	for _, s := range AllSchemes() {
		rows = append(rows, row{string(s), smallConfig(s), smallSpec(), nil})
	}
	// A page is cached on its second walk, and evictSpec's footprint keeps
	// the eviction daemon working.
	sel := smallConfig(SchemeNOMAD)
	sel.CacheFrames, sel.Frontend.CacheTouchThreshold = 512, 2
	// TDC's eviction daemon on the same footprint, at half the
	// instructions of the per-scheme rows.
	tdc := tdcEvictConfig()
	tdc.WarmupInstructions, tdc.ROIInstructions = 30_000, 60_000
	dist := smallConfig(SchemeNOMAD)
	dist.Backend.Distributed = true
	rows = append(rows,
		row{"NOMAD-selective", sel, evictSpec(), nonZero("frontend.selective_bypasses", "frontend.daemon_runs")},
		row{"TDC-512frames", tdc, evictSpec(), nonZero("frontend.daemon_runs", "frontend.dirty_evictions")},
		row{"NOMAD-distributed", dist, smallSpec(), nonZero("backend.fills")},
		row{"NOMAD-area", areaConfig(), smallSpec(), nonZero("backend.buffer_wait_sum", "backend.sub_entry_overflows")},
		row{"NOMAD-64frames", tinyConfig(SchemeNOMAD), smallSpec(), nonZero("frontend.forced_shootdowns", "frontend.direct_reclaims")},
		row{"Ideal-64frames", tinyConfig(SchemeIdeal), smallSpec(), []floor{{"scheme.tag_misses", 64}}})

	for _, r := range rows {
		r := r
		// The ff=true subtest's wheel run is the reference for ff=false.
		var refSnap, refTrace []byte
		for _, ff := range []bool{true, false} {
			ff := ff
			t.Run(fmt.Sprintf("%s/ff=%v", r.name, ff), func(t *testing.T) {
				run := func(engine string) ([]byte, []byte) {
					cfg := r.cfg
					cfg.Timeline = true
					cfg.Interval = 20_000
					cfg.TraceDepth = 1 << 12
					cfg.SpanDepth = 1 << 11
					res, err := newOn(t, engine, ff, cfg, r.spec).Run()
					if err != nil {
						t.Fatalf("Run(%s, %s): %v", r.name, engine, err)
					}
					for _, f := range r.ran {
						if v := res.Metrics.Counter(f.name); v <= f.min {
							t.Errorf("%s on %s: %s is %d, want above %d; the path under test never ran", r.name, engine, f.name, v, f.min)
						}
					}
					snap, err := json.Marshal(res.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					var trace bytes.Buffer
					if err := metrics.WritePerfetto(&trace, metrics.PerfettoRun{Name: "eng", Dump: res.Trace}); err != nil {
						t.Fatal(err)
					}
					return snap, trace.Bytes()
				}
				wheelSnap, wheelTrace := run("wheel")
				heapSnap, heapTrace := run("heap")
				if !bytes.Equal(wheelSnap, heapSnap) {
					t.Errorf("metrics snapshot differs between wheel and heap engines\nwheel: %.400s\nheap:  %.400s", wheelSnap, heapSnap)
				}
				if !bytes.Equal(wheelTrace, heapTrace) {
					t.Error("Perfetto trace differs between wheel and heap engines")
				}
				if refSnap == nil {
					refSnap, refTrace = wheelSnap, wheelTrace
				} else if !bytes.Equal(refSnap, wheelSnap) || !bytes.Equal(refTrace, wheelTrace) {
					t.Error("metrics snapshot or Perfetto trace differs between fast-forward on and off")
				}
			})
		}
	}
}

// areaConfig is Fig. 15's area-optimized back-end with the §IV-B.5
// ablation knobs. Four cores keep several fills queued for the one copy
// buffer; two cores with two PCSHRs never queue two waiters.
func areaConfig() Config {
	cfg := smallConfig(SchemeNOMAD)
	cfg.Cores = 4
	cfg.Backend.PCSHRs, cfg.Backend.CopyBuffers = 4, 1
	cfg.Backend.VerifyLatency, cfg.Backend.NoCriticalFirst = 1, true
	return cfg
}

// tinyConfig puts scheme on a 64-frame DRAM cache, below every core's TLB
// reach, so reclaim starves: NOMAD falls back to direct reclaim and forced
// shootdowns, and Ideal evicts.
func tinyConfig(scheme SchemeName) Config {
	cfg := smallConfig(scheme)
	cfg.CacheFrames = 64
	return cfg
}

// engines names the two event queues the differential suites compare: the
// timing wheel every run uses and the binary-heap oracle.
var engines = []string{"wheel", "heap"}

// newOn builds the machine for cfg and spec on the named event queue, with
// activity-driven ticking on (ff) or switched off for the polled reference
// engine. It fails t unless the engine runs on the heap exactly when asked
// to, so a dropped option cannot turn a differential suite into a
// comparison of the wheel with itself.
func newOn(t *testing.T, engine string, ff bool, cfg Config, spec workload.Spec) *Machine {
	t.Helper()
	var opts []sim.Option
	if engine == "heap" {
		opts = append(opts, sim.WithScheduler(sim.NewHeapScheduler()))
	}
	m, err := newMachine(cfg, spec, opts...)
	if err != nil {
		t.Fatalf("New(%s, %s): %v", cfg.Scheme, engine, err)
	}
	if _, heap := m.Engine().SchedulerImpl().(*sim.HeapScheduler); heap != (engine == "heap") {
		t.Fatalf("engine %q built scheduler %T", engine, m.Engine().SchedulerImpl())
	}
	m.Engine().SetFastForward(ff)
	return m
}
