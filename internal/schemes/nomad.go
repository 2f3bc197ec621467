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

// NOMAD assembles the paper's design: the OS front-end (tag management in
// PTEs/TLBs, Algorithm 1 and 2) over the hardware back-end (PCSHRs and page
// copy buffers). The scheme's post-LLC path performs the data-hit
// verification of §III-D.3: every cache-space access CAM-matches the PCSHR
// CFN tags before touching the on-package DRAM.
type NOMAD struct {
	dcController
	eng      *sim.Engine
	frontend *core.Frontend
	backend  *core.Backend
}

// NewNOMAD builds the full NOMAD scheme. threads and flusher are supplied by
// the system assembly.
func NewNOMAD(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager,
	fcfg core.FrontendConfig, bcfg core.BackendConfig,
	threads []core.Thread, flusher core.Flusher) *NOMAD {
	fcfg.Blocking = false
	backend := core.NewBackend(eng, bcfg, hbm, ddr)
	frontend := core.NewFrontend(eng, fcfg, mm, threads, flusher, backend, nil, nil)
	return &NOMAD{dcController: newDCController(eng, hbm, ddr, mm), eng: eng,
		frontend: frontend, backend: backend}
}

// Name implements Scheme.
func (n *NOMAD) Name() string { return "NOMAD" }

// Access implements Scheme: data-hit verification, then DRAM or page copy
// buffer.
func (n *NOMAD) Access(req *mem.Request, done mem.Done) {
	addr := mem.Untag(req.Addr)
	if req.Write {
		n.stats.Writes++
	} else {
		done = n.stats.recordRead(n.now, done)
	}
	done = n.wrap(req.Probe, metrics.SpanScheme, done)
	verify := n.backend.Config().VerifyLatency

	if mem.SpaceOf(req.Addr) == mem.SpaceCache {
		if !req.Write {
			n.stats.CacheSpaceReads++
		}
		cfn := mem.PageNum(addr)
		si := mem.SubBlockIndex(addr)
		if verify > 0 {
			// Sensitivity-study path (VerifyLatency > 0): the deferred
			// closure allocation is accepted — the paper default is 0.
			write := req.Write
			kind := req.Kind
			prio := req.Priority
			probe := req.Probe
			n.eng.Schedule(verify, func() {
				if n.backend.CheckCacheAccess(cfn, si, write, probe, done) == core.DataHit {
					n.hbm.AccessProbe(addr, write, kind, prio, probe,
						n.wrap(probe, metrics.SpanHBM, done))
				}
			})
			return
		}
		if n.backend.CheckCacheAccess(cfn, si, req.Write, req.Probe, done) == core.DataHit {
			n.hbm.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe,
				n.wrap(req.Probe, metrics.SpanHBM, done))
		}
		return
	}

	if !req.Write {
		n.stats.PhysSpaceReads++
	}
	pfn := mem.PageNum(addr)
	si := mem.SubBlockIndex(addr)
	if n.backend.CheckPhysicalAccess(pfn, si, req.Write, req.Probe, done) == core.DataHit {
		n.ddr.AccessProbe(addr, req.Write, req.Kind, req.Priority, req.Probe,
			n.wrap(req.Probe, metrics.SpanDDR, done))
	}
}

// Walker implements Scheme.
func (n *NOMAD) Walker() tlb.Walker { return n.frontend }

// Directory implements Scheme.
func (n *NOMAD) Directory() tlb.Directory { return n.frontend }

// Drained implements Scheme.
func (n *NOMAD) Drained() bool { return n.backend.ActivePCSHRs() == 0 }

// Frontend exposes the OS routines (stats, tests).
func (n *NOMAD) Frontend() *core.Frontend { return n.frontend }

// Backend exposes the hardware engine (stats, tests).
func (n *NOMAD) Backend() *core.Backend { return n.backend }
