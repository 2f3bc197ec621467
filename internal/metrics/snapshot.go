package metrics

// Snapshot is the serializable state of a Registry at one instant, diffed
// against the MarkROI baseline. Its JSON encoding is deterministic for a
// deterministic simulation: encoding/json sorts map keys and the values
// derive only from simulated state (never wall clock), so two same-seed
// runs marshal byte-identically.
type Snapshot struct {
	// Cycles is the span covered by the snapshot (since MarkROI).
	Cycles     uint64                       `json:"cycles"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Trace summarizes the event-trace and span rings (present only when
	// tracing was enabled) so truncated exports are visible, not silent.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Timeline is the interval time-series capture (present only when the
	// timeline was enabled): per-interval columns aligned to the ROI.
	Timeline *TimelineSnapshot `json:"timeline,omitempty"`
	// Digests is the interval digest chain (present only when digests were
	// enabled): one chained registry digest per interval window, the
	// divergence-localization primitive diag builds on.
	Digests *DigestChain `json:"digests,omitempty"`
}

// TraceSummary reports how much of the run's event and span history the
// rings retained. Dropped counts are overwritten records: a nonzero value
// means the exported trace starts mid-run.
type TraceSummary struct {
	Events        uint64 `json:"events"`
	EventsDropped uint64 `json:"events_dropped"`
	Spans         uint64 `json:"spans"`
	SpansDropped  uint64 `json:"spans_dropped"`
}

// Counter returns a counter by name, 0 if absent (schemes register only
// the metrics they have, so readers treat absence as zero).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Gauge returns a gauge by name, 0 if absent.
func (s *Snapshot) Gauge(name string) float64 {
	if s == nil {
		return 0
	}
	return s.Gauges[name]
}

// HistogramSnapshot is one histogram's state: count/sum/buckets are ROI
// deltas, min/max span the whole run.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	// Buckets lists only non-empty log2 buckets in ascending order.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean of the snapshotted observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Bucket is one non-empty log2 histogram bucket: Count observations fell
// in the inclusive value range [Lo, Hi].
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}
