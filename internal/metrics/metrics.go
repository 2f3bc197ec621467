// Package metrics is the simulator's observability layer: a stats registry
// of named counters, gauges and log2-bucket histograms, interval timeline
// columns and digest chains, plus optional ring buffers of typed trace
// events and access spans.
//
// Design constraints, in order:
//
//  1. Zero allocation on simulation hot paths. Components keep plain uint64
//     fields and register them by reference (Counter reads the field in
//     place when a snapshot or interval sample is taken; CounterFunc and
//     GaugeFunc compute a derived value then), or hold a *Histogram / *Trace
//     whose Observe / Emit writes into fixed pre-allocated storage.
//  2. Cheap construction. A default machine registers about 850 counters,
//     so registration only appends: no closure per plain counter and no
//     name-uniqueness map. Duplicates lists the names registered twice, for
//     tests and for the invariants build's check of each wired machine, and
//     Snapshot panics where two registrations would collapse into one entry.
//  3. Determinism. A snapshot of a deterministic simulation is itself
//     deterministic: map-free registration order, no wall-clock anywhere,
//     and encoding/json's sorted map keys make two same-seed runs
//     byte-identical when marshalled.
//  4. Stable names. Every metric is registered under a dotted lowercase
//     path (see DESIGN.md, "Metric naming scheme"); names are part of the
//     public API surfaced through nomad.Snapshot.
//
// The registry separates warmup from the measured region of interest:
// MarkROI captures a baseline, and Snapshot reports counter and histogram
// deltas against it (gauges are instantaneous; the timeline and digest chain
// restart at the mark).
package metrics

import (
	"math/bits"
	"sort"
	"strings"
)

// Histogram accumulates uint64 observations into fixed log2 buckets:
// bucket 0 holds the value 0 and bucket i (1..64) holds values in
// [2^(i-1), 2^i). Observe is allocation-free. Min and Max span the whole
// run (they are not rewound by MarkROI); counts and sums are.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [65]uint64
}

// Observe records one value. A nil receiver is a no-op so components can
// call unconditionally whether or not metrics are wired.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// histBase is the MarkROI baseline of one histogram.
type histBase struct {
	count   uint64
	sum     uint64
	buckets [65]uint64
}

// counterEntry is one registered counter: a plain counter's field, read in
// place, or the function that computes a derived one.
type counterEntry struct {
	name string
	v    *uint64
	fn   func() uint64
}

func (c *counterEntry) read() uint64 {
	if c.v != nil {
		return *c.v
	}
	return c.fn()
}

type gaugeEntry struct {
	name string
	read func() float64
}

type histEntry struct {
	name string
	h    *Histogram
}

// Registry holds every metric of one simulated machine. It is not safe for
// concurrent use; each Machine owns one (simulations are single-threaded).
type Registry struct {
	counters []counterEntry
	gauges   []gaugeEntry
	hists    []histEntry
	trace    *Trace
	spans    *SpanRing

	// Interval timeline state (timeline.go): registered columns, the names
	// the registration filter dropped, the filter, and the collected
	// windows.
	intervals []intervalEntry
	filtered  []string
	tlFilter  []string
	tlActive  bool
	tlStart   uint64
	tlLast    uint64
	tlEvery   uint64
	tlCycles  []uint64

	// Interval digest-chain state (digest.go): sorted fold orders fixed at
	// BeginDigests, the schema digest, and the collected chain.
	digActive     bool
	digStart      uint64
	digLast       uint64
	digEvery      uint64
	digSchema     uint64
	digCycles     []uint64
	digests       []uint64
	digCounterIdx []int
	digGaugeIdx   []int
	digHistIdx    []int

	marked       bool
	markCycle    uint64
	baseCounters []uint64
	baseHists    []histBase
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter registers the monotonic count at v, which the component keeps
// incrementing as a plain field: snapshots and digests read it in place, so
// neither the hot path nor registration pays for a closure.
func (r *Registry) Counter(name string, v *uint64) {
	r.counters = append(r.counters, counterEntry{name: name, v: v})
}

// CounterFunc registers a counter whose value fn derives from other state
// when a snapshot or digest reads it (a sum or difference of fields). A
// plain field goes through Counter.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.counters = append(r.counters, counterEntry{name: name, fn: fn})
}

// GaugeFunc registers an instantaneous value read lazily from fn. Gauges
// are not rewound by MarkROI.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.gauges = append(r.gauges, gaugeEntry{name: name, read: fn})
}

// Histogram registers and returns a log2-bucket histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.hists = append(r.hists, histEntry{name: name, h: h})
	return h
}

// Duplicates returns, sorted, every name registered more than once:
// counters, gauges and histograms share one namespace, and timeline columns
// have their own, reported with a "timeline " prefix. Names the timeline
// filter dropped still count. Registration itself does not check, so that
// building a machine stays a run of appends; Snapshot panics only on the
// duplicates it would merge (two of one kind, timeline columns when the
// timeline is active and unfiltered).
func (r *Registry) Duplicates() []string {
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		names = append(names, c.name)
	}
	for _, g := range r.gauges {
		names = append(names, g.name)
	}
	for _, h := range r.hists {
		names = append(names, h.name)
	}
	dups := repeated(names, "")
	names = append(names[:0], r.filtered...)
	for _, e := range r.intervals {
		names = append(names, e.name)
	}
	return append(dups, repeated(names, "timeline ")...)
}

// repeated sorts names and returns each name that occurs more than once,
// once, after prefix.
func repeated(names []string, prefix string) []string {
	sort.Strings(names)
	var out []string
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] && (i == 1 || names[i] != names[i-2]) {
			out = append(out, prefix+names[i])
		}
	}
	return out
}

// EnableTrace attaches a ring buffer of depth events and returns it.
// Calling it again replaces the buffer.
func (r *Registry) EnableTrace(depth int) *Trace {
	r.trace = newTrace(depth)
	return r.trace
}

// Trace returns the attached event trace, or nil.
func (r *Registry) Trace() *Trace { return r.trace }

// EnableSpans attaches a ring buffer of depth sampled-access spans and
// returns it. Calling it again replaces the buffer.
func (r *Registry) EnableSpans(depth int) *SpanRing {
	r.spans = NewSpanRing(depth)
	return r.spans
}

// Spans returns the attached span ring, or nil.
func (r *Registry) Spans() *SpanRing { return r.spans }

// MarkROI captures the current counter and histogram state as the baseline
// that Snapshot diffs against, re-anchors an active timeline and digest
// chain, and resets the event-trace and span rings so exported traces cover
// the measured region only. Call it at the warmup / region-of-interest boundary.
func (r *Registry) MarkROI(now uint64) {
	r.trace.Reset()
	r.spans.Reset()
	if r.tlActive {
		// Re-anchor an active timeline so its first window starts at the
		// ROI boundary (the engine hook is re-anchored by the caller).
		r.BeginTimeline(now, r.tlEvery)
	}
	if r.digActive {
		// Same for an active digest chain: warmup windows are discarded so
		// the chain covers exactly the measured region.
		r.BeginDigests(now, r.digEvery)
	}
	r.marked = true
	r.markCycle = now
	r.baseCounters = make([]uint64, len(r.counters))
	for i, c := range r.counters {
		r.baseCounters[i] = c.read()
	}
	r.baseHists = make([]histBase, len(r.hists))
	for i, he := range r.hists {
		r.baseHists[i] = histBase{count: he.h.count, sum: he.h.sum, buckets: he.h.buckets}
	}
}

// Snapshot captures every metric at cycle now, as a delta against the
// MarkROI baseline (or since construction if MarkROI was never called).
// Counters and histogram counts/sums/buckets are deltas; gauges and
// histogram min/max are instantaneous whole-run values. It panics when two
// counters, two gauges, two histograms or two timeline columns were
// registered under one name, as one would silently replace the other.
func (r *Registry) Snapshot(now uint64) *Snapshot {
	s := &Snapshot{
		Cycles:   now - r.markCycle,
		Counters: make(map[string]uint64, len(r.counters)),
		Timeline: r.timelineSnapshot(),
		Digests:  r.digestSnapshot(),
	}
	if r.trace != nil || r.spans != nil {
		s.Trace = &TraceSummary{
			Events:        uint64(r.trace.Len()),
			EventsDropped: r.trace.Dropped(),
			Spans:         uint64(r.spans.Len()),
			SpansDropped:  r.spans.Dropped(),
		}
	}
	for i, c := range r.counters {
		v := c.read()
		if r.marked {
			v -= r.baseCounters[i]
		}
		s.Counters[c.name] = v
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for _, g := range r.gauges {
			s.Gauges[g.name] = g.read()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for i, he := range r.hists {
			s.Histograms[he.name] = r.histSnapshot(i, he.h)
		}
	}
	r.mustNotCollapse(len(s.Counters)+len(s.Gauges)+len(s.Histograms),
		len(r.counters)+len(r.gauges)+len(r.hists))
	return s
}

// mustNotCollapse panics when a snapshot map holds fewer entries than were
// registered for it: two registrations shared a name. The check costs a
// comparison, so every build makes it, not only the invariants build.
func (r *Registry) mustNotCollapse(entries, registered int) {
	if entries < registered {
		panic("metrics: names registered more than once: " + strings.Join(r.Duplicates(), ", "))
	}
}

func (r *Registry) histSnapshot(i int, h *Histogram) HistogramSnapshot {
	var base histBase
	if r.marked {
		base = r.baseHists[i]
	}
	hs := HistogramSnapshot{
		Count: h.count - base.count,
		Sum:   h.sum - base.sum,
		Min:   h.min,
		Max:   h.max,
	}
	for b := 0; b < len(h.buckets); b++ {
		n := h.buckets[b] - base.buckets[b]
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(b)
		hs.Buckets = append(hs.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
	}
	return hs
}

// bucketBounds returns the inclusive value range of log2 bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	if b == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<b - 1
}

// CounterNames returns all registered counter names, sorted (tests,
// documentation tooling).
func (r *Registry) CounterNames() []string {
	names := make([]string, len(r.counters))
	for i, c := range r.counters {
		names[i] = c.name
	}
	sort.Strings(names)
	return names
}
