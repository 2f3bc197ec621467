package system

import (
	"fmt"

	"nomad/internal/sim"
)

// MaxRingDepth bounds Telemetry.TraceDepth and Telemetry.SpanDepth: the
// rings are allocated whole when the machine is built, and 1<<20 records
// (tens of MB) is 16 times the event depth TraceCapture selects.
const MaxRingDepth = 1 << 20

// DefaultSpanSampleEvery is the span sampling period Resolved selects when
// Telemetry.SpanSampleEvery is zero: 1 in 64 loads.
const DefaultSpanSampleEvery = 64

// Telemetry groups the observability knobs of a run. The zero value
// disables all capture, which is the right setting for plain measurement
// runs: every knob here costs some throughput when enabled. Config, the
// experiment harness and the public API all carry this one struct.
type Telemetry struct {
	// TraceDepth, when positive, records the last TraceDepth machine
	// events (tag misses, PCSHR fills/writebacks, row conflicts) of the
	// ROI into a ring, summarised in Snapshot.Trace; the run's trace dump
	// renders as a Perfetto trace. At most MaxRingDepth.
	TraceDepth int
	// SpanDepth, when positive, follows 1 in SpanSampleEvery loads per
	// core from issue to data return, each hop recorded into a ring of
	// this many spans. At most MaxRingDepth.
	SpanDepth int
	// SpanSampleEvery is the span sampling period in loads (deterministic,
	// by per-core load sequence number); 0 selects DefaultSpanSampleEvery.
	SpanSampleEvery uint64
	// Timeline enables interval time-series telemetry: every Interval
	// cycles of the measured region, a set of registry metrics (per-core
	// IPC, DC hit rate, PCSHR occupancy high-water, HBM/DDR bandwidth by
	// category, row-buffer conflict rate, MSHR occupancy) is snapshotted
	// into windowed columns (Snapshot.Timeline). The first window starts
	// exactly at the ROI boundary, and same-seed runs marshal
	// byte-identical timelines.
	Timeline bool
	// Interval is the window length in cycles of the timeline, the digest
	// chain and progress reports; 0 selects sim.DefaultInterval (100k).
	Interval uint64
	// TimelineMetrics restricts the collected timeline columns to names
	// matching these prefixes (e.g. "core.", "hbm.gbs."); empty collects
	// all.
	TimelineMetrics []string
	// Digests enables interval digest chains: every Interval cycles of the
	// measured region, a chained FNV-1a digest of the full registry is
	// folded into Snapshot.Digests. Chains are byte-identical same-seed
	// across engines and fast-forward modes, and the first window whose
	// digests differ between two runs localizes their divergence (see
	// internal/diag). One hash per window: far cheaper than Timeline.
	Digests bool
	// SelfProfile samples the simulator's own host-side performance
	// (wall-clock simulated-cycles/sec, events/sec, heap-in-use, GC
	// pauses) into Result.Host. Host readings are inherently
	// non-deterministic and never part of the metrics snapshot.
	SelfProfile bool
}

// TraceCapture returns the event and span ring depths a -trace capture
// uses: deep enough that a short ROI, or one interval window of a
// divergence replay, fits without the event ring wrapping, small enough to
// keep memory per run modest.
func TraceCapture() (events, spans int) { return 1 << 16, 1 << 15 }

// Validate reports the first out-of-range knob: a negative ring depth, or
// one deeper than MaxRingDepth.
func (t Telemetry) Validate() error {
	if err := checkDepth("trace", t.TraceDepth); err != nil {
		return err
	}
	return checkDepth("span", t.SpanDepth)
}

func checkDepth(ring string, depth int) error {
	switch {
	case depth < 0:
		return fmt.Errorf("negative %s depth %d", ring, depth)
	case depth > MaxRingDepth:
		return fmt.Errorf("%s depth %d exceeds the limit of %d", ring, depth, MaxRingDepth)
	}
	return nil
}

// Resolved returns t with its zero-means-default knobs (Interval,
// SpanSampleEvery) filled in. New runs the resolved knobs, and manifests
// hash them, so a default left at zero and one spelled out address the same
// run.
func (t Telemetry) Resolved() Telemetry {
	if t.Interval == 0 {
		t.Interval = sim.DefaultInterval
	}
	if t.SpanSampleEvery == 0 {
		t.SpanSampleEvery = DefaultSpanSampleEvery
	}
	return t
}
