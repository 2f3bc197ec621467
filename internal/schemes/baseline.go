package schemes

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// Baseline models a traditional system with only off-package memory: the
// lower bound of DRAM cache performance (§IV-A). Every post-LLC access goes
// to DDR; translation is a plain page-table walk.
type Baseline struct {
	dcPort
	ddr    *dram.Device
	walker physWalker
}

// NewBaseline builds the baseline scheme.
func NewBaseline(eng *sim.Engine, ddr *dram.Device, mm *osmem.Manager, walkLatency uint64) *Baseline {
	return &Baseline{dcPort: dcPort{now: eng.Now}, ddr: ddr, walker: physWalker{eng, mm, walkLatency}}
}

// Name implements Scheme.
func (b *Baseline) Name() string { return "Baseline" }

// Access implements Scheme.
func (b *Baseline) Access(req *mem.Request, done mem.Done) {
	if req.Write {
		b.stats.Writes++
	} else {
		b.stats.PhysSpaceReads++
		done = b.stats.recordRead(b.now, done)
	}
	done = b.wrap(req.Probe, metrics.SpanDDR, done)
	b.ddr.AccessProbe(mem.Untag(req.Addr), req.Write, req.Kind, req.Priority, req.Probe, done)
}

// Walker implements Scheme.
func (b *Baseline) Walker() tlb.Walker { return &b.walker }

// Directory implements Scheme.
func (b *Baseline) Directory() tlb.Directory { return nil }

// NoteStore implements Scheme.
func (b *Baseline) NoteStore(coreID int, e tlb.Entry) {}

// Drained implements Scheme.
func (b *Baseline) Drained() bool { return true }
