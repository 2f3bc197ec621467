// Host self-profiling: how fast is the *simulator* running? A HostProfiler
// samples wall-clock simulation throughput (simulated cycles/sec, engine
// events/sec), Go heap-in-use, and cumulative GC pause time while a machine
// runs, and condenses them into a HostReport.
//
// Everything here reads the wall clock and runtime memory statistics, so a
// HostReport is inherently NON-deterministic. It is therefore kept out of
// the metrics Snapshot (which must marshal byte-identically across same-seed
// runs) and attached to results only when self-profiling is explicitly
// enabled.
package metrics

import (
	"runtime"
	"time"
)

// HostSample is one point of the self-profiling time series.
type HostSample struct {
	// WallSeconds since profiling started.
	WallSeconds float64 `json:"wall_seconds"`
	// SimCycles / Events are cumulative simulated cycles and engine events.
	SimCycles uint64 `json:"sim_cycles"`
	Events    uint64 `json:"events"`
	// CyclesPerSec / EventsPerSec are rates over the elapsed sample window.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	// HeapInUseBytes is runtime heap-in-use at the sample.
	HeapInUseBytes uint64 `json:"heap_in_use_bytes"`
	// GCPauseTotalNs / NumGC are cumulative since process start.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	NumGC          uint32 `json:"num_gc"`
}

// HostReport summarizes one run's host-side performance.
type HostReport struct {
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsExecuted  uint64  `json:"events_executed"`
	EventsPerSec    float64 `json:"events_per_sec"`
	// PeakHeapInUseBytes is the largest heap-in-use observed at any sample.
	PeakHeapInUseBytes uint64 `json:"peak_heap_in_use_bytes"`
	// GCPauses / GCPauseTotalNs cover the profiled span only.
	GCPauses       uint32 `json:"gc_pauses"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// SkippedCycles / Jumps report the engine's fast-forward effectiveness
	// (the sim.skipped_cycles and sim.jumps readings): cycles the clock
	// jumped over while no component was awake, and the jumps that
	// advanced them.
	// They live here rather than in the metrics snapshot because they
	// differ between fast-forward on and off, while snapshots are required
	// to stay byte-identical across the two. SkippedCycles/SimCycles is the
	// run's skip ratio. The caller fills them in (the profiler itself never
	// touches engine internals).
	SkippedCycles uint64 `json:"skipped_cycles"`
	Jumps         uint64 `json:"jumps"`
	// Samples is the periodic capture (empty for very short runs).
	Samples []HostSample `json:"samples,omitempty"`
}

// HostProfiler collects HostSamples while a simulation runs. It is owned by
// one machine and is not safe for concurrent use.
type HostProfiler struct {
	start      time.Time
	lastSample time.Time
	lastCycles uint64
	lastEvents uint64
	minPeriod  time.Duration
	startGCNs  uint64
	startNumGC uint32
	peakHeap   uint64
	samples    []HostSample
}

// DefaultHostSamplePeriod spaces host samples far enough apart that
// runtime.ReadMemStats (a brief stop-the-world) stays invisible in the
// throughput numbers it is measuring.
const DefaultHostSamplePeriod = 100 * time.Millisecond

// NewHostProfiler starts profiling now. minPeriod bounds the sampling rate
// (0 selects DefaultHostSamplePeriod).
func NewHostProfiler(minPeriod time.Duration) *HostProfiler {
	if minPeriod <= 0 {
		minPeriod = DefaultHostSamplePeriod
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	return &HostProfiler{
		start:      now,
		lastSample: now,
		minPeriod:  minPeriod,
		startGCNs:  ms.PauseTotalNs,
		startNumGC: ms.NumGC,
		peakHeap:   ms.HeapInuse,
	}
}

// MaybeSample records one sample if at least minPeriod elapsed since the
// last; callers invoke it from their run loop at simulation-chunk
// granularity. simCycles and events are the engine's cumulative counts.
func (p *HostProfiler) MaybeSample(simCycles, events uint64) {
	if p == nil {
		return
	}
	now := time.Now()
	dt := now.Sub(p.lastSample)
	if dt < p.minPeriod {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > p.peakHeap {
		p.peakHeap = ms.HeapInuse
	}
	s := HostSample{
		WallSeconds:    now.Sub(p.start).Seconds(),
		SimCycles:      simCycles,
		Events:         events,
		HeapInUseBytes: ms.HeapInuse,
		GCPauseTotalNs: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
	}
	if secs := dt.Seconds(); secs > 0 {
		s.CyclesPerSec = float64(simCycles-p.lastCycles) / secs
		s.EventsPerSec = float64(events-p.lastEvents) / secs
	}
	p.samples = append(p.samples, s)
	p.lastSample = now
	p.lastCycles = simCycles
	p.lastEvents = events
}

// Finish takes a final reading and returns the report.
func (p *HostProfiler) Finish(simCycles, events uint64) *HostReport {
	if p == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > p.peakHeap {
		p.peakHeap = ms.HeapInuse
	}
	wall := time.Since(p.start).Seconds()
	r := &HostReport{
		WallSeconds:        wall,
		SimCycles:          simCycles,
		EventsExecuted:     events,
		PeakHeapInUseBytes: p.peakHeap,
		GCPauses:           ms.NumGC - p.startNumGC,
		GCPauseTotalNs:     ms.PauseTotalNs - p.startGCNs,
		Samples:            p.samples,
	}
	if wall > 0 {
		r.SimCyclesPerSec = float64(simCycles) / wall
		r.EventsPerSec = float64(events) / wall
	}
	return r
}
