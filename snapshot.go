package nomad

import "nomad/internal/metrics"

// Snapshot is the full region-of-interest metrics snapshot of one run: every
// counter, gauge and histogram the simulator maintains, keyed by stable
// dotted names (documented in DESIGN.md), plus the optional timeline, digest
// chain and trace summary. The scalar Result fields are derived views over
// it.
//
// Counter values are ROI deltas; gauges are instantaneous at ROI end;
// histogram count/sum/buckets are ROI deltas while min/max span the whole
// run. Trace is nil unless tracing was enabled (Telemetry.TraceDepth /
// Telemetry.SpanDepth), Timeline unless Telemetry.Timeline was set, and
// Digests unless Telemetry.Digests was set.
//
// The JSON encoding is deterministic: map keys marshal sorted, and every
// value derives from simulated state, never the wall clock — two same-seed
// runs marshal byte-identically.
type Snapshot = metrics.Snapshot

// TraceSummary counts what the trace rings captured during the ROI. Dropped
// values are ring overwrites: raise the depth (or the span sampling period)
// if they matter for the analysis.
type TraceSummary = metrics.TraceSummary

// Histogram is one latency/occupancy distribution in log2 buckets.
type Histogram = metrics.HistogramSnapshot

// HistogramBucket holds Count observations in the inclusive range [Lo, Hi].
type HistogramBucket = metrics.Bucket

// Timeline is the interval time-series capture of one run
// (Telemetry.Timeline): one column per metric, one row per interval window
// of the measured region. Cycles[i] is the END of window i relative to
// StartCycle (the ROI boundary), so the first full window ends at exactly
// Interval cycles; a final partial window ends wherever the run did.
type Timeline = metrics.TimelineSnapshot

// DigestChain is the interval digest-chain capture of one run
// (Telemetry.Digests): Digests[i] is a chained FNV-1a 64 digest (16 hex
// digits) of the full metrics registry at the end of interval window i,
// folding in Digests[i-1], so a behavioral divergence in any window
// perturbs every later digest. Cycles[i] is that window's end relative to
// StartCycle (the ROI boundary). The first differing window between two
// runs localizes their divergence (see cmd/nomaddiff).
type DigestChain = metrics.DigestChain
