// Package schemes implements the five memory schemes of the evaluation
// (§IV-A) behind one interface: Baseline (off-package only), TiD (HW-based,
// Unison-style tags-in-DRAM), TDC (blocking OS-managed), NOMAD, and Ideal
// (zero-penalty OS-managed upper bound).
//
// A Scheme sits below the shared LLC (it is the DC controller plus, for the
// OS-managed designs, the OS front-end), and above the two DRAM devices.
package schemes

import (
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/tlb"
)

// Scheme is one memory-system design under test.
type Scheme interface {
	Name() string
	// Access handles post-LLC traffic (demand misses and writebacks).
	// The request address is space-tagged (mem.TagSpace).
	Access(req *mem.Request, done mem.Done)
	// Walker resolves TLB misses (scheme-specific: OS-managed schemes
	// run DC tag miss handling here).
	Walker() tlb.Walker
	// Directory observes TLB residency of cache-space translations (nil
	// for schemes that do not need it).
	Directory() tlb.Directory
	// NoteStore is invoked after a store's translation so OS-managed
	// schemes can set the dirty-in-cache bit (free in real hardware,
	// §III-C.1).
	NoteStore(coreID int, e tlb.Entry)
	// Drained reports whether background work has quiesced (used to
	// drain between warmup and measurement windows if desired).
	Drained() bool
}

// AccessStats measures the effective DC access time at the DC controller
// (Fig. 9's right axis) — time from the post-LLC request entering the
// scheme until its data is available.
type AccessStats struct {
	Reads          uint64
	ReadLatencySum uint64
	Writes         uint64
	// CacheSpaceReads counts reads served by the on-package DRAM path.
	CacheSpaceReads uint64
	PhysSpaceReads  uint64
	// Lat, when set (system wiring), gets one observation per read — the
	// distribution behind AvgReadLatency (Fig. 9's right axis).
	Lat *metrics.Histogram

	// recs is the readRec freelist: recordRead recycles its latency
	// wrappers so the per-read hot path does not allocate.
	//nomad:ephemeral read-latency ring consumed by the registered latency histogram at flush
	recs []*readRec
}

// readRec is one pooled in-flight read measurement; fn is its permanent
// completion wrapper, built once per instance.
type readRec struct {
	start uint64
	now   func() uint64
	done  mem.Done
	fn    mem.Done
}

// getRec takes a readRec from the freelist, building the instance only on
// first use. The wrapper recycles its record before chaining to done, so a
// re-entrant read can reuse it immediately.
func (s *AccessStats) getRec() *readRec {
	if n := len(s.recs); n > 0 {
		r := s.recs[n-1]
		s.recs = s.recs[:n-1]
		return r
	}
	r := &readRec{} //nomadlint:ignore poolalloc -- freelist constructor: the one allocation the pool amortizes
	r.fn = func() {
		lat := r.now() - r.start
		s.ReadLatencySum += lat
		s.Lat.Observe(lat)
		done := r.done
		r.done, r.now = nil, nil
		s.recs = append(s.recs, r)
		if done != nil {
			done()
		}
	}
	return r
}

// AvgReadLatency returns the mean post-LLC read latency in cycles.
func (s *AccessStats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.Reads)
}

// recordRead wraps done to account a read's latency (pooled: the returned
// wrapper is recycled at completion, so steady-state reads do not allocate).
func (s *AccessStats) recordRead(now func() uint64, done mem.Done) mem.Done {
	s.Reads++
	r := s.getRec()
	r.start = now()
	r.now = now
	r.done = done
	return r.fn
}

// spanTap is the span-emission hook every scheme embeds: wrap() records a
// hop of a sampled access (Probe.SpanID != 0) into the attached ring. The
// zero value is disabled; schemes set now at construction and the system
// wiring attaches the ring via SetSpans.
type spanTap struct {
	spans *metrics.SpanRing
	now   func() uint64
}

// SetSpans attaches the span ring sampled accesses emit into (nil disables).
func (st *spanTap) SetSpans(spans *metrics.SpanRing) { st.spans = spans }

// wrap returns done wrapped to emit one span of the given kind covering
// now()..completion. Untagged or unsampled requests pass through untouched.
func (st *spanTap) wrap(p *mem.Probe, kind metrics.SpanKind, done mem.Done) mem.Done {
	if st.spans == nil || p == nil || p.SpanID == 0 {
		return done
	}
	start := st.now()
	id, core := p.SpanID, p.Core
	return func() {
		st.spans.Emit(metrics.Span{
			ID: id, Kind: kind, Core: core, Start: start, End: st.now(),
		})
		if done != nil {
			done()
		}
	}
}
