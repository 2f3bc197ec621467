package nomad

import (
	"fmt"
	"io"

	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/obs"
	"nomad/internal/system"
)

// BandwidthKind categorizes DRAM traffic in bandwidth breakdowns (Fig. 10).
type BandwidthKind int

// Traffic categories.
const (
	TrafficDemand BandwidthKind = iota
	TrafficMetadata
	TrafficFill
	TrafficWriteback
	TrafficWalk
	numTraffic
)

func (k BandwidthKind) String() string { return mem.Kind(k).String() }

// The public traffic enum must track the internal one; this fails to compile
// if the internal categories change without this file following.
var _ [numTraffic]struct{} = [mem.NumKinds]struct{}{}

// Result holds the measurements of one simulation's region of interest.
// Rates use the 3.2 GHz clock.
type Result struct {
	Scheme   Scheme
	Workload string
	Cores    int

	// Cycles and Seconds are the length of the measured region.
	Cycles  uint64
	Seconds float64
	// Instructions retired across all cores during the region.
	Instructions uint64
	// IPC is system throughput (instructions per cycle, all cores).
	IPC float64

	// OSStallRatio is the average fraction of cycles threads spent
	// suspended by OS routines — the paper's "application stall cycles".
	OSStallRatio float64
	// MemStallRatio is the fraction of cycles retirement was blocked by
	// an incomplete load at the ROB head.
	MemStallRatio float64

	// AvgDCAccessTime is the mean post-LLC read latency at the DRAM
	// cache controller, in cycles (Fig. 9, bottom).
	AvgDCAccessTime float64

	// LLCMisses and LLCMPMS (misses per microsecond) characterize
	// memory intensity (Table I).
	LLCMisses uint64
	LLCMPMS   float64

	// RMHBGBs is the miss-handling bandwidth: for Ideal, the fills that
	// would have been required (Table I's RMHB); otherwise the fill
	// traffic actually read from off-package memory.
	RMHBGBs float64

	// HBMBandwidthGBs / OffPkgBandwidthGBs are total consumed bandwidths;
	// HBMBreakdownGBs splits on-package traffic by category (Fig. 10).
	HBMBandwidthGBs    float64
	OffPkgBandwidthGBs float64
	HBMBreakdownGBs    [numTraffic]float64
	HBMRowHitRate      float64
	HBMUtilization     float64
	DDRUtilization     float64

	// Tag management (OS-managed schemes, Figs. 11/14/15/16).
	TagMisses         uint64
	AvgTagMgmtLatency float64
	MaxTagMgmtLatency uint64

	// NOMAD back-end behaviour (§IV-B.5).
	DataHits          uint64
	DataMisses        uint64
	BufferHitRate     float64
	SubEntryOverflows uint64

	Evictions      uint64
	DirtyEvictions uint64

	// CPIStack attributes every ROI core-cycle to a named bucket
	// (Fig. 11); the buckets sum exactly to Cycles × Cores.
	CPIStack CPIStack

	metrics  *Snapshot
	trace    *metrics.TraceDump
	host     *HostProfile
	manifest *Manifest
}

// Manifest is a run's content address: the SHA-256 of the resolved
// configuration, workload definition, and module build stamp, as
// "sha256:<hex>". Because same-seed runs are byte-identical, two runs with
// the same address have the same Snapshot — the address is a sound cache
// key for results. It is host-side metadata: never part of the Snapshot,
// which marshals identically with manifests on or off.
type Manifest struct {
	// Address is "sha256:<hex>" over the canonical config/workload/build
	// document.
	Address  string `json:"address"`
	Scheme   Scheme `json:"scheme"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Module/Version/Revision/VCSTime/Modified stamp the code version the
	// address is relative to (runtime/debug.ReadBuildInfo). Revision is
	// empty for builds outside a VCS checkout.
	Module   string `json:"module,omitempty"`
	Version  string `json:"version,omitempty"`
	Revision string `json:"vcs_revision,omitempty"`
	VCSTime  string `json:"vcs_time,omitempty"`
	Modified bool   `json:"vcs_modified,omitempty"`
	// GoVersion is informational and excluded from the address.
	GoVersion string `json:"go_version,omitempty"`
}

func fromObsManifest(m *obs.Manifest) *Manifest {
	if m == nil {
		return nil
	}
	return &Manifest{
		Address:   m.Address,
		Scheme:    Scheme(m.Scheme),
		Workload:  m.Workload,
		Seed:      m.Seed,
		Module:    m.Build.Module,
		Version:   m.Build.Version,
		Revision:  m.Build.Revision,
		VCSTime:   m.Build.Time,
		Modified:  m.Build.Modified,
		GoVersion: m.Build.GoVersion,
	}
}

// Manifest returns the run's content-addressed identity, or nil for Results
// not produced by Run/RunContext/RunExperimentResult.
func (r *Result) Manifest() *Manifest { return r.manifest }

// HostProfile reports the simulator's own host-side performance during one
// run (Config.SelfProfile): wall-clock time, simulated-cycles/sec, engine
// events/sec, peak heap-in-use, and GC pauses over the profiled span.
// Host readings are inherently non-deterministic (they derive from the wall
// clock and the Go runtime) and are never part of the metrics Snapshot.
type HostProfile struct {
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsExecuted  uint64  `json:"events_executed"`
	EventsPerSec    float64 `json:"events_per_sec"`
	// PeakHeapInUseBytes is the largest heap-in-use seen at any sample.
	PeakHeapInUseBytes uint64 `json:"peak_heap_in_use_bytes"`
	// GCPauses / GCPauseTotalNs cover the profiled span only.
	GCPauses       uint32 `json:"gc_pauses"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// SkippedCycles / Jumps report the engine's fast-forward effectiveness
	// (sim.skipped_cycles / sim.jumps): cycles the clock jumped over while
	// no component was awake, and the jumps that advanced them.
	// SkippedCycles/SimCycles is the run's skip ratio; both read 0 with
	// Config.NoFastForward set. They are host-report fields (not snapshot
	// metrics) because they differ between fast-forward on and off while
	// snapshots stay byte-identical.
	SkippedCycles uint64 `json:"skipped_cycles"`
	Jumps         uint64 `json:"jumps"`
	// Samples is the periodic capture (at most one per 100 ms; empty for
	// very short runs). Keyed by cumulative wall seconds.
	Samples []HostSample `json:"samples,omitempty"`
}

// HostSample is one point of the self-profiling capture.
type HostSample struct {
	WallSeconds    float64 `json:"wall_seconds"`
	SimCycles      uint64  `json:"sim_cycles"`
	Events         uint64  `json:"events"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	EventsPerSec   float64 `json:"events_per_sec"`
	HeapInUseBytes uint64  `json:"heap_in_use_bytes"`
	GCPauseTotalNs uint64  `json:"gc_pause_total_ns"`
	NumGC          uint32  `json:"num_gc"`
}

// CPIStack is the Fig. 11-style stall attribution, summed over cores. The
// buckets partition every measured core-cycle: Total() == Cycles × Cores.
type CPIStack struct {
	// Compute is cycles not attributable to the memory system or the OS.
	Compute uint64
	// TagMiss is cycles threads were suspended inside OS tag-management
	// routines — near zero under NOMAD, dominant under blocking schemes.
	TagMiss uint64
	// Frontend is instruction-supply stall cycles.
	Frontend uint64
	// Mem splits load-retirement stalls by the blocking load's location,
	// keyed by cause name: "sram", "tlb", "mshr", "pcshr", "dram_queue",
	// "row_conflict", "bus", "dram_service".
	Mem map[string]uint64
}

// Total returns the core-cycles the stack accounts for.
func (s CPIStack) Total() uint64 {
	t := s.Compute + s.TagMiss + s.Frontend
	for _, v := range s.Mem {
		t += v
	}
	return t
}

// HasTrace reports whether the run captured events or spans (Config
// TraceDepth/SpanDepth) for WriteTrace.
func (r *Result) HasTrace() bool { return r.trace != nil }

// WriteTrace renders the run's event/span capture as Perfetto/Chrome
// trace-event JSON, loadable at https://ui.perfetto.dev. The output is
// byte-identical across same-seed runs. It fails unless the run was
// configured with Config.TraceDepth or Config.SpanDepth.
func (r *Result) WriteTrace(w io.Writer) error {
	if r.trace == nil {
		return fmt.Errorf("nomad: no trace captured; set Config.TraceDepth or Config.SpanDepth")
	}
	run := metrics.PerfettoRun{Name: string(r.Scheme) + "/" + r.Workload, Dump: r.trace}
	return metrics.WritePerfetto(w, run)
}

// Metrics returns the full ROI metrics snapshot the scalar fields above are
// derived from: every counter, gauge, histogram and time series under its
// stable dotted name (see DESIGN.md for the naming scheme).
func (r *Result) Metrics() *Snapshot { return r.metrics }

// Timeline returns the interval time-series capture of the measured region,
// or nil unless the run was configured with Config.Timeline.
func (r *Result) Timeline() *Timeline {
	if r.metrics == nil {
		return nil
	}
	return r.metrics.Timeline
}

// Digests returns the interval digest-chain capture of the measured region,
// or nil unless the run was configured with Telemetry.Digests.
func (r *Result) Digests() *DigestChain {
	if r.metrics == nil {
		return nil
	}
	return r.metrics.Digests
}

// Host returns the simulator's own host-side performance profile, or nil
// unless the run was configured with Config.SelfProfile.
func (r *Result) Host() *HostProfile { return r.host }

// Breakdown returns the on-package bandwidth of one traffic category.
func (r *Result) Breakdown(k BandwidthKind) float64 {
	if k < 0 || k >= numTraffic {
		return 0
	}
	return r.HBMBreakdownGBs[k]
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f dcAccess=%.1fcyc osStall=%.1f%% tagLat=%.0fcyc hbm=%.1fGB/s offpkg=%.1fGB/s",
		r.Scheme, r.Workload, r.IPC, r.AvgDCAccessTime, 100*r.OSStallRatio,
		r.AvgTagMgmtLatency, r.HBMBandwidthGBs, r.OffPkgBandwidthGBs)
}

func fromInternal(r *system.Result) *Result {
	out := &Result{
		Scheme:             Scheme(r.Scheme),
		Workload:           r.Workload,
		Cores:              r.Cores,
		Cycles:             r.Cycles,
		Seconds:            r.Seconds,
		Instructions:       r.Instructions,
		IPC:                r.IPC,
		OSStallRatio:       r.OSStallRatio,
		MemStallRatio:      r.MemStallRatio,
		AvgDCAccessTime:    r.AvgDCAccessTime,
		LLCMisses:          r.LLCMisses,
		LLCMPMS:            r.LLCMPMS,
		RMHBGBs:            r.RMHBGBs,
		HBMBandwidthGBs:    r.HBMGBs,
		OffPkgBandwidthGBs: r.OffPkgGBs,
		HBMRowHitRate:      r.HBMRowHitRate,
		HBMUtilization:     r.HBMUtilization,
		DDRUtilization:     r.DDRUtilization,
		TagMisses:          r.TagMisses,
		AvgTagMgmtLatency:  r.AvgTagMgmtLatency,
		MaxTagMgmtLatency:  r.MaxTagMgmtLatency,
		DataHits:           r.DataHits,
		DataMisses:         r.DataMisses,
		BufferHitRate:      r.BufferHitRate,
		SubEntryOverflows:  r.SubEntryOverflows,
		Evictions:          r.Evictions,
		DirtyEvictions:     r.DirtyEvictions,
		metrics:            fromSnapshot(r.Metrics),
		trace:              r.Trace,
		host:               fromHostReport(r.Host),
	}
	out.CPIStack = CPIStack{
		Compute:  r.CPIStack.Compute,
		TagMiss:  r.CPIStack.TagMiss,
		Frontend: r.CPIStack.Frontend,
		Mem:      make(map[string]uint64, mem.NumStallCauses),
	}
	for c := mem.StallCause(0); c < mem.NumStallCauses; c++ {
		out.CPIStack.Mem[c.String()] = r.CPIStack.Mem[c]
	}
	if r.Seconds > 0 {
		for k := 0; k < mem.NumKinds; k++ {
			out.HBMBreakdownGBs[k] = float64(r.HBMBytesByKind[k]) / r.Seconds / 1e9
		}
	}
	return out
}

func fromHostReport(h *metrics.HostReport) *HostProfile {
	if h == nil {
		return nil
	}
	out := &HostProfile{
		WallSeconds:        h.WallSeconds,
		SimCycles:          h.SimCycles,
		SimCyclesPerSec:    h.SimCyclesPerSec,
		EventsExecuted:     h.EventsExecuted,
		EventsPerSec:       h.EventsPerSec,
		PeakHeapInUseBytes: h.PeakHeapInUseBytes,
		GCPauses:           h.GCPauses,
		GCPauseTotalNs:     h.GCPauseTotalNs,
		SkippedCycles:      h.SkippedCycles,
		Jumps:              h.Jumps,
	}
	if len(h.Samples) > 0 {
		out.Samples = make([]HostSample, len(h.Samples))
		for i, s := range h.Samples {
			out.Samples[i] = HostSample(s)
		}
	}
	return out
}
