package schemes

import (
	"nomad/internal/core"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// TDC is the state-of-the-art blocking OS-managed DRAM cache (Lee et al.,
// "A Fully Associative, Tagless DRAM Cache", ISCA 2015), implemented — per
// §IV-A — like the NOMAD front-end except for the blocking miss handling:
// on a DC tag miss the OS copies the whole page and only then resumes the
// thread. Page copies from different cores proceed in parallel (only the
// critical PTEs are locked) and no tag-management penalty is charged, which
// isolates the blocking-vs-non-blocking comparison.
type TDC struct {
	eng            *sim.Engine
	hbm, ddr       *dram.Device
	mm             *osmem.Manager
	frontend       *core.Frontend
	stats          AccessStats
	inflightCopies int
	spanTap
}

// NewTDC builds the blocking OS-managed scheme.
func NewTDC(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager,
	fcfg core.FrontendConfig, threads []core.Thread, flusher core.Flusher) *TDC {
	t := &TDC{eng: eng, hbm: hbm, ddr: ddr, mm: mm, spanTap: spanTap{now: eng.Now}}
	// The TDC page copy is OS software running on the faulting CPU — a
	// cache-line copy loop with the memory-level parallelism of a memcpy
	// (~2 outstanding lines), not a hardware DMA engine. This is the
	// fundamental reason the blocking scheme cannot saturate off-package
	// bandwidth on Excess-class workloads while NOMAD's back-end can
	// (§II-B: the miss is "penalized by thousands of cycles mainly due to
	// the cache-fill execution").
	copier := core.NewCopier(2)
	fill := func(pfn, cfn uint64, done mem.Done) {
		t.inflightCopies++
		copier.Copy(ddr, pfn, hbm, cfn, mem.KindFill, func() {
			t.inflightCopies--
			if done != nil {
				done()
			}
		})
	}
	wb := func(cfn, pfn uint64, done mem.Done) {
		t.inflightCopies++
		copier.Copy(hbm, cfn, ddr, pfn, mem.KindWriteback, func() {
			t.inflightCopies--
			if done != nil {
				done()
			}
		})
	}
	fcfg.Blocking = true
	fcfg.TagMgmtLatency = 0
	t.frontend = core.NewFrontend(eng, fcfg, mm, threads, flusher, nil, fill, wb)
	return t
}

// Name implements Scheme.
func (t *TDC) Name() string { return "TDC" }

// Access implements Scheme: with coupled tag-data management a tag hit
// guarantees a data hit, so cache-space accesses go straight to the
// on-package DRAM.
func (t *TDC) Access(req *mem.Request, done mem.Done) {
	addr := mem.Untag(req.Addr)
	if req.Write {
		t.stats.Writes++
	} else {
		done = t.stats.recordRead(t.now, done)
	}
	if mem.SpaceOf(req.Addr) == mem.SpaceCache {
		if !req.Write {
			t.stats.CacheSpaceReads++
		}
		done = t.wrap(req.Probe, metrics.SpanHBM, done)
		t.hbm.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe, done)
	} else {
		if !req.Write {
			t.stats.PhysSpaceReads++
		}
		done = t.wrap(req.Probe, metrics.SpanDDR, done)
		t.ddr.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe, done)
	}
}

// Walker implements Scheme.
func (t *TDC) Walker() tlb.Walker { return t.frontend }

// Directory implements Scheme.
func (t *TDC) Directory() tlb.Directory { return t.frontend }

// NoteStore implements Scheme.
func (t *TDC) NoteStore(coreID int, e tlb.Entry) {
	if e.Space == mem.SpaceCache {
		t.mm.MarkDirty(e.Frame)
	}
}

// Drained implements Scheme.
func (t *TDC) Drained() bool { return t.inflightCopies == 0 }

// Frontend exposes the OS routines (stats, tests).
func (t *TDC) Frontend() *core.Frontend { return t.frontend }

// AccessStats returns the scheme's DC-controller statistics.
func (t *TDC) AccessStats() *AccessStats { return &t.stats }
