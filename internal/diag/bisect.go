// First-divergence bisection: given two run configurations whose results
// differ, localize the earliest interval window where their metric state
// parts ways and re-capture exactly that prefix with full event tracing.
//
// The digest chain makes this a two-pass algorithm rather than a log(N)
// search: pass 1 runs both configs once with digests on and compares the
// chains, which pins the first divergent window directly; pass 2 re-runs
// both configs with ROICycleLimit set to that window's end and trace capture
// forced on, so the emitted Perfetto traces cover the whole prefix up to and
// including the first divergent interval. Determinism makes the replay
// sound: the partial re-run is a cycle-exact prefix of the full run.
package diag

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"nomad/internal/harness"
	"nomad/internal/metrics"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// RunSpec names one side of a bisection: a config and workload to execute.
type RunSpec struct {
	// Key labels the run in the report and trace names (e.g. "TDC/cact/1").
	Key  string
	Cfg  system.Config
	Spec workload.Spec
}

// Report is the outcome of a bisection.
type Report struct {
	KeyA string `json:"key_a"`
	KeyB string `json:"key_b"`
	// Identical is true when the full runs' digest chains agree completely;
	// the replay pass is skipped and only Full is populated.
	Identical bool `json:"identical"`
	// Full diffs the two complete runs (always populated).
	Full *SnapshotDiff `json:"full"`
	// Digests localizes the first divergent window (nil only when digest
	// capture produced no chains at all).
	Digests *DigestDiff `json:"digests,omitempty"`
	// WindowDeltas ranks the timeline columns that differ in the first
	// divergent window.
	WindowDeltas []MetricDelta `json:"window_deltas,omitempty"`
	// Cutoff diffs the two partial re-runs that stop at the divergent
	// window's end — the metric-level state of the divergence itself,
	// uncontaminated by everything that happened after.
	Cutoff *SnapshotDiff `json:"cutoff,omitempty"`
	// TraceA/TraceB are Perfetto trace files (JSON bytes) covering each
	// run's prefix up to the divergent window's end.
	TraceA []byte `json:"-"`
	TraceB []byte `json:"-"`
}

// ExecPair runs the two specs through the harness pool and returns their
// results. Keys are prefixed so identical spec keys (same config diffed
// against itself, or A/B differing only in Config fields outside the key)
// cannot collide in the harness results map.
func ExecPair(ctx context.Context, a, b RunSpec) (ra, rb *harness.RunResult, err error) {
	runs := []harness.Run{
		{Key: "A/" + a.Key, Cfg: a.Cfg, Spec: a.Spec},
		{Key: "B/" + b.Key, Cfg: b.Cfg, Spec: b.Spec},
	}
	results, err := harness.Execute(ctx, harness.Options{}, runs)
	if err != nil {
		return nil, nil, err
	}
	ra, rb = results["A/"+a.Key], results["B/"+b.Key]
	if ra == nil || rb == nil {
		return nil, nil, fmt.Errorf("diag: run pair did not complete (A=%v B=%v)", ra != nil, rb != nil)
	}
	return ra, rb, nil
}

// windowDeltas ranks the shared timeline columns of window i.
func windowDeltas(a, b *metrics.TimelineSnapshot, i int) []MetricDelta {
	if i < 0 || i >= a.Windows() || i >= b.Windows() {
		return nil
	}
	av := map[string]float64{}
	bv := map[string]float64{}
	for name, col := range a.Metrics {
		if b.Metric(name) != nil {
			av[name] = col[i]
			bv[name] = b.Metrics[name][i]
		}
	}
	deltas, _, _ := RankDeltas(av, bv)
	return deltas
}

// perfetto renders one run's trace dump as Perfetto JSON bytes.
func perfetto(name string, r *harness.RunResult) ([]byte, error) {
	if r.Trace == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := metrics.WritePerfetto(&buf, metrics.PerfettoRun{Name: name, Dump: r.Trace}); err != nil {
		return nil, fmt.Errorf("diag: perfetto export for %s: %w", name, err)
	}
	return buf.Bytes(), nil
}

// Bisect localizes the first divergent interval between two runs.
//
// Pass 1 executes both specs in full with digest chains and timelines forced
// on and diffs the results. If the digest chains agree the report says so
// and stops. Otherwise pass 2 re-executes both specs with ROICycleLimit set
// to the first divergent window's end cycle and event/span tracing forced
// on, attaching per-run Perfetto traces of that prefix plus the ranked
// timeline deltas of the divergent window and a snapshot diff at the cutoff.
//
// Both passes honor ctx; cancellation surfaces as the harness's context
// error.
func Bisect(ctx context.Context, a, b RunSpec) (*Report, error) {
	rep := &Report{KeyA: a.Key, KeyB: b.Key}

	// Pass 1: full runs with the localization captures on.
	fa, fb := a, b
	fa.Cfg.Digests, fa.Cfg.Timeline = true, true
	fb.Cfg.Digests, fb.Cfg.Timeline = true, true
	ra, rb, err := ExecPair(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	rep.Full = DiffSnapshots(ra.Metrics, rb.Metrics)
	rep.Digests = rep.Full.Digests
	if rep.Digests.Identical() {
		rep.Identical = true
		return rep, nil
	}
	i := rep.Digests.FirstDivergent
	rep.WindowDeltas = windowDeltas(ra.Metrics.Timeline, rb.Metrics.Timeline, i)

	// The divergent window's end in ROI-relative cycles, from whichever
	// chain reaches it. A zero end (divergence at a zero-length chain)
	// leaves nothing to replay.
	stop := rep.Digests.WindowEnd
	if stop == 0 {
		return rep, nil
	}

	// Pass 2: replay just the prefix, tracing everything.
	pa, pb := fa, fb
	for _, cfg := range []*system.Config{&pa.Cfg, &pb.Cfg} {
		cfg.ROICycleLimit = stop
		cfg.TraceDepth, cfg.SpanDepth = system.TraceCapture()
	}
	ca, cb, err := ExecPair(ctx, pa, pb)
	if err != nil {
		return nil, err
	}
	rep.Cutoff = DiffSnapshots(ca.Metrics, cb.Metrics)
	if rep.TraceA, err = perfetto("A/"+a.Key, ca); err != nil {
		return nil, err
	}
	if rep.TraceB, err = perfetto("B/"+b.Key, cb); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteText renders the bisection report human-readably. topK bounds the
// delta tables (0 = 10).
func (r *Report) WriteText(w io.Writer, topK int) error {
	if topK <= 0 {
		topK = 10
	}
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("bisect %s vs %s\n", r.KeyA, r.KeyB)
	if r.Identical {
		p("digest chains identical (%d windows): runs are behaviorally identical\n", r.Digests.WindowsA)
		return err
	}
	if d := r.Digests; d != nil {
		p("first divergent interval  %d (window %d..%d cycles)\n", d.FirstDivergent, d.WindowStart, d.WindowEnd)
		p("  digest %s vs %s\n", orNone(d.DigestA), orNone(d.DigestB))
	}
	if len(r.WindowDeltas) > 0 {
		n := topK
		if n > len(r.WindowDeltas) {
			n = len(r.WindowDeltas)
		}
		p("timeline deltas in the divergent window (%d of %d):\n", n, len(r.WindowDeltas))
		for _, md := range r.WindowDeltas[:n] {
			p("  %s\n", md)
		}
	}
	if r.Cutoff != nil {
		p("snapshot diff at cutoff (cycle %d):\n", r.Digests.WindowEnd)
		if err == nil {
			err = r.Cutoff.WriteText(w, topK)
		}
	}
	return err
}
