// Benchmarks that regenerate the paper's tables and figures (one per
// artifact, DESIGN.md's per-experiment index). They run the experiment
// harness in fast mode, so `go test -bench=.` reproduces every artifact's
// rows at reduced precision; use cmd/experiments for full-precision output.
package nomad

import (
	"bytes"
	"strings"
	"testing"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := RunExperiment(id, ExperimentOptions{Fast: true}, &buf); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Logf("\n%s", buf.String())
		}
		if !strings.Contains(buf.String(), "---") {
			b.Fatalf("%s produced no table", id)
		}
	}
}

// BenchmarkTable1 regenerates Table I (workload characteristics).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2 regenerates Fig. 2 (TDC/TiD crossover vs RMHB).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig9 regenerates Fig. 9 (IPC and DC access time, all schemes).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (on-package bandwidth breakdown).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (stall ratios and tag latency).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12 (per-class IPC vs PCSHR count).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Fig. 13 (PCSHRs vs core count).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Fig. 14 (PCSHR contention: cact vs libq).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Fig. 15 (area-optimized n PCSHRs / m buffers).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Fig. 16 (centralized vs distributed back-ends).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkAblations regenerates the ablation studies (verification
// latency, critical-data-first, tag-handler cost).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// BenchmarkReplacement regenerates the replacement-policy study
// (§III-C.2's FIFO-FA vs SA-LRU miss claim).
func BenchmarkReplacement(b *testing.B) { benchExperiment(b, "replacement") }

// BenchmarkSelective regenerates the selective-caching study.
func BenchmarkSelective(b *testing.B) { benchExperiment(b, "selective") }

// BenchmarkCPIStack regenerates the CPI-stack stall attribution table
// (Fig. 11 style: where every core-cycle went, per scheme).
func BenchmarkCPIStack(b *testing.B) { benchExperiment(b, "cpistack") }

// BenchmarkTimelineExperiment regenerates the interval-telemetry burst
// trace (libquantum under TDC vs NOMAD).
func BenchmarkTimelineExperiment(b *testing.B) { benchExperiment(b, "timeline") }

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall second) on the default NOMAD configuration — the number
// that bounds how fast every artifact regenerates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchThroughput(b, Config{
		Scheme:             SchemeNOMAD,
		WarmupInstructions: 1,
		ROIInstructions:    200_000,
	})
}

// BenchmarkSimulatorThroughputTimeline is BenchmarkSimulatorThroughput with
// interval telemetry enabled at the default 100k-cycle window. Comparing the
// two cycles/s numbers demonstrates the timeline capture's overhead (the
// design target is under 5%).
func BenchmarkSimulatorThroughputTimeline(b *testing.B) {
	benchThroughput(b, Config{
		Scheme:             SchemeNOMAD,
		WarmupInstructions: 1,
		ROIInstructions:    200_000,
		Telemetry:          Telemetry{Timeline: true},
	})
}

func benchThroughput(b *testing.B, cfg Config) {
	b.Helper()
	w, err := WorkloadByAbbr("cact")
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
