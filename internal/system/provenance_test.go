package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"nomad/internal/metrics"
)

// TestCPIStackInvariant checks the central accounting property of the stall
// attribution: for every scheme, the named buckets sum exactly to the ROI
// core-cycles — no cycle is double-counted or lost.
func TestCPIStackInvariant(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r := runScheme(t, s)
			want := r.Cycles * uint64(r.Cores)
			if got := r.CPIStack.Total(); got != want {
				t.Fatalf("CPI stack total = %d, want %d (cycles %d × cores %d); stack %+v",
					got, want, r.Cycles, r.Cores, r.CPIStack)
			}
			// The mem buckets partition the mem-stall counter exactly.
			var memStall uint64
			for i := 0; i < r.Cores; i++ {
				memStall += r.Metrics.Counter("core." + itoa(i) + ".mem_stall_cycles")
			}
			if got := r.CPIStack.MemTotal(); got != memStall {
				t.Fatalf("mem buckets sum to %d, want mem_stall_cycles %d", got, memStall)
			}
		})
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

// TestCPIStackNOMADTagMissVsTDC checks the paper's headline contrast
// (Fig. 11): under the blocking OS-managed scheme, tag-miss suspension
// covers the whole miss — PTE update plus fill data movement — and
// dominates the stack on an Excess workload. NOMAD's decoupling releases
// the thread after the PTE update alone, so its suspension bucket is the
// short critical section only, a fraction of TDC's.
func TestCPIStackNOMADTagMissVsTDC(t *testing.T) {
	tdc := runScheme(t, SchemeTDC)
	nomad := runScheme(t, SchemeNOMAD)
	frac := func(r *Result) float64 {
		return float64(r.CPIStack.TagMiss) / float64(r.CPIStack.Total())
	}
	ft, fn := frac(tdc), frac(nomad)
	t.Logf("tag-miss fraction: TDC %.3f NOMAD %.3f", ft, fn)
	if fn > ft/1.5 {
		t.Fatalf("NOMAD tag-miss fraction %.3f, want well below TDC's %.3f", fn, ft)
	}
	if ft < 0.05 {
		t.Fatalf("TDC tag-miss fraction %.3f suspiciously low on an Excess workload", ft)
	}
}

// traceConfig is smallConfig with span/event capture on.
func traceConfig(scheme SchemeName) Config {
	cfg := smallConfig(scheme)
	cfg.TraceDepth = 1 << 14
	cfg.SpanDepth = 1 << 13
	cfg.SpanSampleEvery = 16
	return cfg
}

// TestTraceExportDeterministic runs the same traced configuration twice and
// requires byte-identical Perfetto output.
func TestTraceExportDeterministic(t *testing.T) {
	export := func() []byte {
		m, err := New(traceConfig(SchemeNOMAD), smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Trace == nil {
			t.Fatal("traced run produced no dump")
		}
		var buf bytes.Buffer
		if err := metrics.WritePerfetto(&buf, metrics.PerfettoRun{Name: "t", Dump: r.Trace}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("Perfetto export differs across same-seed runs")
	}
}

// TestTraceExportWellFormed validates the Perfetto JSON shape: per-core and
// per-bank tracks, complete events always carrying a duration, and spans
// covering the access path from the core down to a DRAM device.
func TestTraceExportWellFormed(t *testing.T) {
	m, err := New(traceConfig(SchemeNOMAD), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Trace == nil || r.Metrics.Trace.Spans == 0 {
		t.Fatalf("snapshot trace summary missing or empty: %+v", r.Metrics.Trace)
	}

	kinds := map[metrics.SpanKind]int{}
	for _, s := range r.Trace.Spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		kinds[s.Kind]++
	}
	for _, k := range []metrics.SpanKind{metrics.SpanLoad, metrics.SpanL1, metrics.SpanTLB} {
		if kinds[k] == 0 {
			t.Fatalf("no %s spans captured; kinds = %v", k, kinds)
		}
	}
	if kinds[metrics.SpanHBM] == 0 && kinds[metrics.SpanDDR] == 0 {
		t.Fatalf("no DRAM device spans captured; kinds = %v", kinds)
	}

	var buf bytes.Buffer
	if err := metrics.WritePerfetto(&buf, metrics.PerfettoRun{Name: "t", Dump: r.Trace}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Dur  *uint64         `json:"dur"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}
	var procs, threads, slices int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
			} else {
				threads++
			}
		case "X":
			slices++
			if ev.Dur == nil {
				t.Fatalf("complete event missing dur: %+v", ev)
			}
		case "i":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if procs != 4 {
		t.Fatalf("process tracks = %d, want 4 (cores/backend/hbm/ddr)", procs)
	}
	if threads == 0 || slices == 0 {
		t.Fatalf("threads = %d slices = %d, want both > 0", threads, slices)
	}
}

// TestTracingDisabledByDefault checks the zero-config path stays clean: no
// dump, no snapshot summary, no probe-driven span work.
func TestTracingDisabledByDefault(t *testing.T) {
	r := runScheme(t, SchemeNOMAD)
	if r.Trace != nil {
		t.Fatal("untraced run carries a trace dump")
	}
	if r.Metrics.Trace != nil {
		t.Fatal("untraced run carries a snapshot trace summary")
	}
	// The CPI stack is attribution, not tracing: always on.
	if r.CPIStack.Total() == 0 {
		t.Fatal("CPI stack empty without tracing")
	}
}

// benchRun measures one full simulation (construction + warmup + ROI).
func benchRun(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg, smallSpec())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTracingOff is the default path: stall attribution on (it is
// part of the model), span/event capture off. Compare against
// BenchmarkRunTracingOn to see the capture cost; the off/on gap is the
// budget the observability layer must stay inside (<5%).
func BenchmarkRunTracingOff(b *testing.B) { benchRun(b, smallConfig(SchemeNOMAD)) }

// BenchmarkRunTracingOn enables the event ring and 1-in-16 span sampling.
func BenchmarkRunTracingOn(b *testing.B) { benchRun(b, traceConfig(SchemeNOMAD)) }

// BenchmarkRunDigestsOn is BenchmarkRunTracingOff with interval digest
// chains on; the gap between the two is the digests' cost (DESIGN
// "Divergence diagnosis" budgets it at < 2 %).
func BenchmarkRunDigestsOn(b *testing.B) {
	cfg := smallConfig(SchemeNOMAD)
	cfg.Digests = true
	benchRun(b, cfg)
}
