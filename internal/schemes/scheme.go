// Package schemes implements the five memory schemes of the evaluation
// (§IV-A) behind one interface: Baseline (off-package only), TiD (HW-based,
// Unison-style tags-in-DRAM), TDC (blocking OS-managed), NOMAD, and Ideal
// (zero-penalty OS-managed upper bound).
//
// A Scheme sits below the shared LLC (it is the DC controller plus, for the
// OS-managed designs, the OS front-end), and above the two DRAM devices.
package schemes

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
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
	// AccessStats returns the DC controller's post-LLC statistics.
	AccessStats() *AccessStats
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
	// Lat, when set (system wiring), gets one observation per read: the
	// distribution behind Fig. 9's right axis.
	Lat *metrics.Histogram

	// recs is the readRec freelist: recordRead recycles its latency
	// wrappers so the per-read hot path does not allocate.
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
	r := &readRec{}
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

// dcPort is the post-LLC side every scheme embeds: the access statistics
// and the span hook, whose wrap() records a hop of a sampled access
// (Probe.SpanID != 0) into the attached ring. Schemes set now at
// construction; the span ring is nil until the system wiring attaches one
// via SetSpans.
type dcPort struct {
	stats AccessStats
	spans *metrics.SpanRing
	now   func() uint64
}

// AccessStats returns the scheme's DC-controller statistics.
func (p *dcPort) AccessStats() *AccessStats { return &p.stats }

// SetSpans attaches the span ring sampled accesses emit into (nil disables).
func (p *dcPort) SetSpans(spans *metrics.SpanRing) { p.spans = spans }

// wrap returns done wrapped to emit one span of the given kind covering
// now()..completion. Untagged or unsampled requests pass through untouched.
func (p *dcPort) wrap(pr *mem.Probe, kind metrics.SpanKind, done mem.Done) mem.Done {
	if p.spans == nil || pr == nil || pr.SpanID == 0 {
		return done
	}
	start := p.now()
	id, core := pr.SpanID, pr.Core
	return func() {
		p.spans.Emit(metrics.Span{
			ID: id, Kind: kind, Core: core, Start: start, End: p.now(),
		})
		if done != nil {
			done()
		}
	}
}

// dcController is the DC controller the OS-managed schemes (TDC, NOMAD and
// Ideal) embed. Their tags live in the page tables, so a request's address
// space says where its data is: cache-space addresses go to the
// on-package DRAM, physical ones off package. NOMAD replaces Access with
// its PCSHR-checking path.
type dcController struct {
	dcPort
	hbm, ddr *dram.Device
	mm       *osmem.Manager
}

func newDCController(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager) dcController {
	return dcController{dcPort: dcPort{now: eng.Now}, hbm: hbm, ddr: ddr, mm: mm}
}

// Access implements Scheme: with coupled tag-data management a tag hit
// guarantees a data hit, so cache-space accesses go straight to the
// on-package DRAM.
func (c *dcController) Access(req *mem.Request, done mem.Done) {
	addr := mem.Untag(req.Addr)
	if req.Write {
		c.stats.Writes++
	} else {
		done = c.stats.recordRead(c.now, done)
	}
	if mem.SpaceOf(req.Addr) == mem.SpaceCache {
		if !req.Write {
			c.stats.CacheSpaceReads++
		}
		done = c.wrap(req.Probe, metrics.SpanHBM, done)
		c.hbm.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe, done)
	} else {
		if !req.Write {
			c.stats.PhysSpaceReads++
		}
		done = c.wrap(req.Probe, metrics.SpanDDR, done)
		c.ddr.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe, done)
	}
}

// NoteStore implements Scheme: sets the dirty-in-cache bit alongside the
// conventional PTE dirty bit (no extra cost, §III-C.1).
func (c *dcController) NoteStore(coreID int, e tlb.Entry) {
	if e.Space == mem.SpaceCache {
		c.mm.MarkDirty(e.Frame)
	}
}

// physWalker is the conventional page-table walk of the schemes without an
// OS-managed DRAM cache (Baseline and TiD): every translation is to
// physical space.
type physWalker struct {
	eng     *sim.Engine
	mm      *osmem.Manager
	latency uint64
}

// Walk implements tlb.Walker.
func (w *physWalker) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	w.eng.Schedule(w.latency, func() {
		vpn := mem.PageNum(vaddr)
		pte := w.mm.PTEOf(coreID, vpn)
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	})
}
