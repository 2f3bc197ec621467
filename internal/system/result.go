package system

import (
	"fmt"

	"nomad/internal/mem"
	"nomad/internal/metrics"
)

// Result is the measured region-of-interest outcome of one run. All rates
// use the 3.2 GHz clock. The scalar fields are derived views over Metrics,
// the full ROI stats snapshot.
type Result struct {
	Scheme   SchemeName
	Workload string
	Cores    int

	Cycles       uint64
	Instructions uint64
	Seconds      float64

	// IPC is system throughput (retired instructions per cycle, summed
	// over cores). Figures normalize it, so the convention cancels.
	IPC float64

	// OSStallRatio is the average fraction of cycles threads were
	// suspended by OS routines (Fig. 11's "application stall cycles").
	OSStallRatio  float64
	MemStallRatio float64

	// AvgDCAccessTime is the mean post-LLC read latency in CPU cycles,
	// measured at the DC controller (Fig. 9, right axis).
	AvgDCAccessTime float64

	LLCMisses uint64
	// LLCMPMS is LLC misses per microsecond (Table I).
	LLCMPMS float64

	// HBMBytesByKind breaks on-package traffic into demand / metadata /
	// fill / writeback (Fig. 10, left axis); HBMRowHitRate is its right
	// axis. HBMUtilization is bus-busy fraction.
	HBMBytesByKind [mem.NumKinds]uint64
	HBMRowHitRate  float64
	HBMUtilization float64
	HBMGBs         float64

	// HBMAvgReadLat / DDRAvgReadLat are device-level mean read latencies
	// (arrival to data), exposing queueing behaviour.
	HBMAvgReadLat float64
	DDRAvgReadLat float64

	DDRBytesByKind [mem.NumKinds]uint64
	DDRUtilization float64
	// OffPkgGBs is total off-package bandwidth consumption (Fig. 12).
	OffPkgGBs float64

	// RMHBGBs is the required miss-handling bandwidth (Table I): for the
	// Ideal scheme the fills that would have been needed; for real
	// schemes the fill traffic actually read from off-package memory.
	RMHBGBs float64

	// Tag management (OS-managed schemes; Figs. 11/14/15/16).
	TagMisses         uint64
	AvgTagMgmtLatency float64
	MaxTagMgmtLatency uint64

	// NOMAD back-end behaviour (§IV-B.5: the paper reports 91.6% of data
	// misses hitting page copy buffers).
	DataHits          uint64
	DataMisses        uint64
	BufferHitRate     float64
	SubEntryOverflows uint64

	Evictions      uint64
	DirtyEvictions uint64

	// CPIStack is the Fig. 11-style stall attribution, summed over cores.
	CPIStack CPIStack

	// Metrics is the full ROI metrics snapshot (counters, gauges,
	// histograms, time series) the fields above are computed from.
	Metrics *metrics.Snapshot

	// Trace is the raw event/span capture for Perfetto export; nil unless
	// Config.TraceDepth, Config.SpanDepth, or Config.Timeline enabled it.
	Trace *metrics.TraceDump

	// Host is the simulator's own performance during this run (wall-clock
	// cycles/sec, events/sec, heap, GC pauses); nil unless
	// Config.SelfProfile. Host readings are non-deterministic by nature
	// and are never part of Metrics.
	Host *metrics.HostReport `json:",omitempty"`
}

// CPIStack partitions every ROI core-cycle into named buckets (Fig. 11).
// The invariant Compute+TagMiss+Frontend+ΣMem == Cycles×Cores holds exactly:
// each stalled cycle is attributed to the oldest outstanding load's current
// position in the memory system, and Compute absorbs the rest.
type CPIStack struct {
	// Compute is cycles the core retired work or was limited by issue
	// width, not by the memory system or the OS.
	Compute uint64
	// TagMiss is cycles threads were suspended inside OS tag-management
	// routines (the paper's "application stall cycles").
	TagMiss uint64
	// Frontend is cycles lost to instruction-supply stalls.
	Frontend uint64
	// Mem splits load-retirement stalls by the blocking load's location:
	// indexed by mem.StallCause (sram, tlb, mshr, pcshr, dram_queue,
	// row_conflict, bus, dram_service).
	Mem [mem.NumStallCauses]uint64
}

// Total returns the number of core-cycles the stack accounts for.
func (s CPIStack) Total() uint64 {
	t := s.Compute + s.TagMiss + s.Frontend
	for _, v := range s.Mem {
		t += v
	}
	return t
}

// MemTotal returns the summed memory-stall buckets.
func (s CPIStack) MemTotal() uint64 {
	var t uint64
	for _, v := range s.Mem {
		t += v
	}
	return t
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f dcAccess=%.1fcyc stall=%.1f%% tagLat=%.0fcyc hbm=%.1fGB/s offpkg=%.1fGB/s",
		r.Scheme, r.Workload, r.IPC, r.AvgDCAccessTime, 100*r.OSStallRatio,
		r.AvgTagMgmtLatency, r.HBMGBs, r.OffPkgGBs)
}

// result derives the ROI Result from the registry snapshot. Absent metrics
// (a scheme without a front-end, say) read as zero, which keeps the
// computation scheme-agnostic except where the paper's definitions differ.
func (m *Machine) result(snap *metrics.Snapshot) *Result {
	r := &Result{Scheme: m.cfg.Scheme, Workload: m.workload, Cores: len(m.cores), Metrics: snap}

	cycles := snap.Cycles
	r.Cycles = cycles
	r.Seconds = float64(cycles) / ClockHz

	var osStall, memStall uint64
	for i := range m.cores {
		p := fmt.Sprintf("core.%d", i)
		r.Instructions += snap.Counter(p + ".instructions")
		osStall += snap.Counter(p + ".os_blocked_cycles")
		memStall += snap.Counter(p + ".mem_stall_cycles")
		r.CPIStack.Compute += snap.Counter(p + ".cpi.compute")
		r.CPIStack.TagMiss += snap.Counter(p + ".cpi.tag_miss")
		r.CPIStack.Frontend += snap.Counter(p + ".cpi.frontend")
		for c := mem.StallCause(0); c < mem.NumStallCauses; c++ {
			r.CPIStack.Mem[c] += snap.Counter(p + ".cpi.mem." + c.String())
		}
	}
	r.Trace = m.reg.Dump()
	totalCoreCycles := cycles * uint64(len(m.cores))
	if cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(cycles)
		r.OSStallRatio = float64(osStall) / float64(totalCoreCycles)
		r.MemStallRatio = float64(memStall) / float64(totalCoreCycles)
	}

	// LLC.
	r.LLCMisses = snap.Counter("cache.llc.misses")
	if r.Seconds > 0 {
		r.LLCMPMS = float64(r.LLCMisses) / (r.Seconds * 1e6)
	}

	// DRAM devices.
	for k := 0; k < mem.NumKinds; k++ {
		kind := mem.Kind(k).String()
		r.HBMBytesByKind[k] = snap.Counter("hbm.bytes." + kind)
		r.DDRBytesByKind[k] = snap.Counter("ddr.bytes." + kind)
	}
	hbmBursts := snap.Counter("hbm.row_hits") + snap.Counter("hbm.row_misses") + snap.Counter("hbm.row_conflicts")
	if hbmBursts > 0 {
		r.HBMRowHitRate = float64(snap.Counter("hbm.row_hits")) / float64(hbmBursts)
	}
	if cycles > 0 {
		r.HBMUtilization = float64(snap.Counter("hbm.bus_busy_cycles")) /
			float64(cycles*uint64(m.cfg.HBM.Channels))
		r.DDRUtilization = float64(snap.Counter("ddr.bus_busy_cycles")) /
			float64(cycles*uint64(m.cfg.DDR.Channels))
	}
	if r.Seconds > 0 {
		r.HBMGBs = float64(sumBytes(r.HBMBytesByKind)) / r.Seconds / 1e9
		r.OffPkgGBs = float64(sumBytes(r.DDRBytesByKind)) / r.Seconds / 1e9
	}
	r.HBMAvgReadLat = diffAvg(snap.Counter("hbm.read_latency_sum"), snap.Counter("hbm.read_count"))
	r.DDRAvgReadLat = diffAvg(snap.Counter("ddr.read_latency_sum"), snap.Counter("ddr.read_count"))

	// Post-LLC access path (uniform across schemes).
	r.AvgDCAccessTime = diffAvg(snap.Counter("scheme.read_latency_sum"), snap.Counter("scheme.reads"))

	// Scheme-specific measures.
	switch m.cfg.Scheme {
	case SchemeTDC, SchemeNOMAD:
		r.TagMisses = snap.Counter("frontend.tag_misses")
		r.AvgTagMgmtLatency = diffAvg(snap.Counter("frontend.tag_mgmt_latency_sum"), r.TagMisses)
		//nomadlint:ignore floatclock -- gauge snapshots are float-typed; the max latency is an exact integer well below 2^53
		r.MaxTagMgmtLatency = uint64(snap.Gauge("frontend.tag_mgmt_latency_max"))
		r.Evictions = snap.Counter("frontend.evictions")
		r.DirtyEvictions = snap.Counter("frontend.dirty_evictions")
	case SchemeIdeal:
		r.TagMisses = snap.Counter("scheme.tag_misses")
		if r.Seconds > 0 {
			r.RMHBGBs = float64(snap.Counter("scheme.would_fill_bytes")) / r.Seconds / 1e9
		}
	}
	if m.cfg.Scheme == SchemeNOMAD {
		r.DataHits = snap.Counter("backend.data_hits")
		r.DataMisses = snap.Counter("backend.data_misses")
		if r.DataMisses > 0 {
			r.BufferHitRate = float64(snap.Counter("backend.buffer_hits")) / float64(r.DataMisses)
		}
		r.SubEntryOverflows = snap.Counter("backend.sub_entry_overflows")
	}
	if m.cfg.Scheme != SchemeIdeal && r.Seconds > 0 {
		// Measured miss-handling bandwidth: fill reads from off-package
		// memory.
		r.RMHBGBs = float64(r.DDRBytesByKind[mem.KindFill]) / r.Seconds / 1e9
	}
	return r
}

func sumBytes(b [mem.NumKinds]uint64) uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

func diffAvg(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
