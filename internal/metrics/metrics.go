// Package metrics is the simulator's observability layer: a stats registry
// of named counters, gauges and log2-bucket histograms, interval timeline
// columns and digest chains, plus optional ring buffers of typed trace
// events and access spans.
//
// Design constraints, in order:
//
//  1. Zero allocation on simulation hot paths. Components either keep plain
//     uint64 fields and expose them lazily (CounterFunc / GaugeFunc read the
//     live value only when a snapshot or interval sample is taken), or hold a
//     *Histogram / *Trace whose Observe / Emit writes into fixed
//     pre-allocated storage.
//  2. Determinism. A snapshot of a deterministic simulation is itself
//     deterministic: map-free registration order, no wall-clock anywhere,
//     and encoding/json's sorted map keys make two same-seed runs
//     byte-identical when marshalled.
//  3. Stable names. Every metric is registered under a dotted lowercase
//     path (see DESIGN.md, "Metric naming scheme"); names are part of the
//     public API surfaced through nomad.Snapshot.
//
// The registry separates warmup from the measured region of interest:
// MarkROI captures a baseline, and Snapshot reports counter and histogram
// deltas against it (gauges are instantaneous; the timeline and digest chain
// restart at the mark).
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
)

// Counter is a registry-owned monotonic counter. The zero value is not
// usable; obtain one from Registry.Counter.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

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

type counterEntry struct {
	name string
	read func() uint64
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
	names    map[string]bool
	trace    *Trace
	spans    *SpanRing

	// Interval timeline state (timeline.go): registered columns, the name
	// namespace, the registration filter, and the collected windows.
	intervals []intervalEntry
	inames    map[string]bool
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
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.names[name] = true
}

// Counter registers and returns a registry-owned counter.
func (r *Registry) Counter(name string) *Counter {
	r.claim(name)
	c := &Counter{}
	r.counters = append(r.counters, counterEntry{name: name, read: c.Value})
	return c
}

// CounterFunc registers a counter whose value is read lazily from fn — the
// zero-hot-path-cost way to expose a component's existing uint64 field.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.claim(name)
	r.counters = append(r.counters, counterEntry{name: name, read: fn})
}

// GaugeFunc registers an instantaneous value read lazily from fn. Gauges
// are not rewound by MarkROI.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.claim(name)
	r.gauges = append(r.gauges, gaugeEntry{name: name, read: fn})
}

// Histogram registers and returns a log2-bucket histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.claim(name)
	h := &Histogram{}
	r.hists = append(r.hists, histEntry{name: name, h: h})
	return h
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
// histogram min/max are instantaneous whole-run values.
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
	return s
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
