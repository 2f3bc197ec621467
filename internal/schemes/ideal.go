package schemes

import (
	"nomad/internal/core"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// Ideal is the zero-penalty OS-managed DRAM cache: tag misses cost nothing,
// page data is instantly present (no fill or writeback traffic), eviction is
// free. It is the upper bound of OS-managed DC performance (§IV-A) and the
// configuration under which Table I's workload characteristics — required
// miss-handling bandwidth (RMHB) and LLC MPMS — are measured: RMHB is the
// fill bandwidth that *would have been* needed, accumulated in
// WouldFillBytes.
type Ideal struct {
	dcController
	eng      *sim.Engine
	walk     uint64
	lowWater uint64
	batch    int

	// WouldFillBytes counts 4 KB per tag miss: the miss-handling traffic
	// an actual fill engine would generate.
	WouldFillBytes uint64
	TagMisses      uint64

	sd core.Shootdowner
}

// SetShootdowner wires the TLB shootdown fallback used when every frame is
// TLB-resident (tiny caches only).
func (s *Ideal) SetShootdowner(sd core.Shootdowner) { s.sd = sd }

// NewIdeal builds the ideal scheme.
func NewIdeal(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager, walkLatency uint64) *Ideal {
	low := uint64(96)
	if max := mm.CacheFrames() / 4; low > max {
		low = max // tiny caches (tests): keep the watermark reachable
	}
	batch := 128
	if b := int(mm.CacheFrames() / 2); batch > b && b > 0 {
		batch = b
	}
	return &Ideal{dcController: newDCController(eng, hbm, ddr, mm),
		eng: eng, walk: walkLatency, lowWater: low, batch: batch}
}

// Name implements Scheme.
func (s *Ideal) Name() string { return "Ideal" }

// Walker implements Scheme.
func (s *Ideal) Walker() tlb.Walker { return idealWalker{s} }

type idealWalker struct{ s *Ideal }

func (w idealWalker) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	s := w.s
	s.eng.Schedule(s.walk, func() {
		vpn := mem.PageNum(vaddr)
		pte := s.mm.PTEOf(coreID, vpn)
		if pte.NonCacheable {
			done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
			return
		}
		if !pte.Cached {
			// Instant, penalty-free tag miss handling.
			s.TagMisses++
			s.WouldFillBytes += mem.PageSize
			if s.mm.FreeFrames() <= s.lowWater {
				s.evict()
			}
			pfn := pte.Frame
			cfn := s.mm.AllocateFrame(pfn)
			s.mm.SetCached(pfn, cfn)
		}
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpaceCache})
	})
}

func (s *Ideal) evict() {
	sweeps := 0
	for s.mm.FreeFrames() <= s.lowWater {
		victims, _ := s.mm.EvictCandidates(s.batch)
		for _, cfn := range victims {
			s.mm.ReleaseFrame(cfn)
		}
		if len(victims) > 0 {
			sweeps = 0
			continue
		}
		// Shootdown-avoidance starvation (TLB reach >= DC capacity):
		// fall back to real shootdowns over the next window.
		if sweeps++; sweeps > int(s.mm.CacheFrames())/s.batch+1 {
			if s.sd == nil {
				panic("schemes: ideal eviction starved and no shootdown path is wired")
			}
			s.mm.ShootdownTail(s.batch, s.sd.Shootdown)
			sweeps = 0
		}
	}
}

// Directory implements Scheme: the ideal scheme still avoids evicting
// TLB-resident frames so translations never go stale.
func (s *Ideal) Directory() tlb.Directory { return idealDir{s} }

type idealDir struct{ s *Ideal }

func (d idealDir) TLBInserted(coreID int, e tlb.Entry) { d.s.mm.TLBSet(e.Frame, coreID, true) }
func (d idealDir) TLBEvicted(coreID int, e tlb.Entry)  { d.s.mm.TLBSet(e.Frame, coreID, false) }

// Drained implements Scheme.
func (s *Ideal) Drained() bool { return true }
