package schemes

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// TiD line geometry: 1 KB cache lines (16 sub-blocks), 4-way set-associative
// with an ideal way predictor (§IV-A).
const (
	tidLineBits   = 10
	tidLineSize   = 1 << tidLineBits
	tidSubPerLine = tidLineSize / mem.BlockSize // 16
	tidWays       = 4
)

// TiDConfig sizes the HW-based scheme.
//
//nomad:ephemeral run configuration, derived from system.Config before the first cycle and hashed into the manifest with it
type TiDConfig struct {
	// CapacityBytes is the DRAM cache capacity (same on-package DRAM as
	// the OS-managed schemes).
	CapacityBytes uint64
	MSHRs         int
}

// TiDStats counts HW-scheme events beyond AccessStats.
type TiDStats struct {
	Hits       uint64
	Misses     uint64
	Coalesced  uint64
	Writebacks uint64
	MSHRStalls uint64
}

// MissRate returns misses / (hits + misses).
func (s *TiDStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

//nomad:ephemeral tag array working state; divergence surfaces in the registered tid.* counters
type tidLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type tidWaiter struct {
	si    uint // sub-block within the line
	write bool
	done  mem.Done
}

// tidMSHR is one pooled line-fill MSHR. Its completions are built once per
// instance: arrive[si] fires when sub-block si arrives from DDR, fill when
// one of the line's HBM fill writes completes. An MSHR goes back to the
// freelist when its last fill write lands; nothing of it is in flight then.
//
//nomad:ephemeral tag MSHR working state; divergence surfaces in the registered tid.* counters
type tidMSHR struct {
	lineAddr uint64 // PA >> tidLineBits
	set      uint64
	way      int
	arrived  uint32 // bitmap of fetched sub-blocks
	issued   uint32
	inFlight int
	writes   int
	waiters  []tidWaiter
	dirty    bool // any coalesced write
	arrive   [tidSubPerLine]mem.Done
	fill     mem.Done
}

type tidPending struct {
	req  mem.Request
	done mem.Done
}

// tidRetry is one pooled re-lookup of an access that stalled on a full
// MSHR file, carried to the next event by its prebuilt fn.
type tidRetry struct {
	req  mem.Request
	done mem.Done
	fn   func()
}

// tidWriteback is the dram.Completer of a dirty victim's HBM reads: each
// completion's argument is the DDR address the sub-block is written to.
type tidWriteback struct{ ddr *dram.Device }

func (w tidWriteback) Complete(dst uint64) {
	w.ddr.Access(dst, true, mem.KindWriteback, false, nil)
}

// TiD is the HW-based DRAM cache: tags live in the on-package DRAM, so
// every access spends on-package bandwidth on metadata reads and updates
// (Fig. 1a); misses are handled non-blocking by MSHRs with
// critical-data-first early restart. This is the tag-management mechanism
// of Unison Cache with a 1 KB line, 4 ways, and an ideal way predictor.
type TiD struct {
	eng      *sim.Engine
	hbm, ddr *dram.Device
	mm       *osmem.Manager
	walk     uint64

	// lines is the tag array, one flat slice: set s's ways are
	// lines[s*tidWays : (s+1)*tidWays] (see ways).
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	lines   []tidLine
	numSets uint64
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	mshrs   map[uint64]*tidMSHR
	maxMSHR int
	// pending holds accesses stalled on a full MSHR file, FIFO; pendHead
	// indexes the next one so pops keep the backing array (re-slicing would
	// bleed capacity and force reallocations).
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	pending []tidPending
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	pendHead int
	// freeMSHRs and retries are the freelists of the pooled carriers.
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	freeMSHRs []*tidMSHR
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	retries []*tidRetry
	wb      tidWriteback
	//nomad:ephemeral tag engine working state; divergence surfaces in the registered tid.* counters
	lruTick  uint64
	metaBase uint64

	stats    AccessStats
	tidStats TiDStats
	spanTap
}

// NewTiD builds the HW-based scheme.
func NewTiD(eng *sim.Engine, hbm, ddr *dram.Device, mm *osmem.Manager, walkLatency uint64, cfg TiDConfig) *TiD {
	lines := cfg.CapacityBytes / tidLineSize
	numSets := lines / tidWays
	if numSets == 0 {
		numSets = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 32
	}
	t := &TiD{
		eng: eng, hbm: hbm, ddr: ddr, mm: mm, walk: walkLatency,
		lines:    make([]tidLine, numSets*tidWays),
		numSets:  numSets,
		mshrs:    make(map[uint64]*tidMSHR),
		maxMSHR:  cfg.MSHRs,
		metaBase: cfg.CapacityBytes, // metadata region above the data array
		wb:       tidWriteback{ddr},
		spanTap:  spanTap{now: eng.Now},
	}
	return t
}

// Name implements Scheme.
func (t *TiD) Name() string { return "TiD" }

func (t *TiD) lineOf(addr uint64) (lineAddr, set, tag uint64) {
	lineAddr = addr >> tidLineBits
	set = lineAddr % t.numSets
	tag = lineAddr / t.numSets
	return
}

// ways returns the tag entries of one set.
func (t *TiD) ways(set uint64) []tidLine {
	return t.lines[set*tidWays : (set+1)*tidWays]
}

// dataAddr maps (set, way, offset) into the on-package data array.
func (t *TiD) dataAddr(set uint64, way int, offset uint64) uint64 {
	return (set*tidWays+uint64(way))<<tidLineBits | (offset & (tidLineSize - 1))
}

// metaAddr is the on-package address of a set's tag/state block.
func (t *TiD) metaAddr(set uint64) uint64 {
	return t.metaBase + set*mem.BlockSize
}

// Access implements Scheme. All post-LLC traffic is physical-space (TiD
// keeps conventional translation); the DC controller probes tags in the
// on-package DRAM on every access.
func (t *TiD) Access(req *mem.Request, done mem.Done) {
	addr := mem.Untag(req.Addr)
	if req.Write {
		t.stats.Writes++
	} else {
		t.stats.CacheSpaceReads++
		done = t.stats.recordRead(t.now, done)
	}
	done = t.wrap(req.Probe, metrics.SpanScheme, done)
	t.lookup(mem.Request{Addr: addr, Write: req.Write, Kind: req.Kind,
		Core: req.Core, Probe: req.Probe}, done)
}

func (t *TiD) lookup(req mem.Request, done mem.Done) {
	lineAddr, set, tag := t.lineOf(req.Addr)

	// Tag probe: one 64 B metadata read per access. The ideal way
	// predictor lets the data access proceed in parallel, so the probe
	// costs bandwidth, not serialized latency (§II-A).
	t.hbm.Access(t.metaAddr(set), false, mem.KindMetadata, false, nil)

	ways := t.ways(set)
	for w := range ways {
		l := &ways[w]
		if l.valid && l.tag == tag {
			t.tidStats.Hits++
			t.lruTick++
			l.lru = t.lruTick
			if req.Write {
				l.dirty = true
			}
			da := t.dataAddr(set, w, req.Addr)
			t.hbm.AccessProbe(da, req.Write, mem.KindDemand, false, req.Probe,
				t.wrap(req.Probe, metrics.SpanHBM, done))
			// LRU/dirty metadata update.
			t.hbm.Access(t.metaAddr(set), true, mem.KindMetadata, false, nil)
			return
		}
	}
	t.miss(req, lineAddr, set, done)
}

func (t *TiD) miss(req mem.Request, lineAddr, set uint64, done mem.Done) {
	t.tidStats.Misses++
	si := uint((req.Addr >> mem.BlockBits) & (tidSubPerLine - 1))
	if m, ok := t.mshrs[lineAddr]; ok {
		t.tidStats.Coalesced++
		if m.arrived&(1<<si) != 0 {
			// Sub-block already fetched: early-restart hit on the
			// in-fill line.
			da := t.dataAddr(m.set, m.way, req.Addr)
			t.hbm.AccessProbe(da, req.Write, mem.KindDemand, false, req.Probe,
				t.wrap(req.Probe, metrics.SpanHBM, done))
			if req.Write {
				m.dirty = true
			}
			return
		}
		m.waiters = append(m.waiters, tidWaiter{si: si, write: req.Write, done: done})
		if req.Probe != nil {
			// Parked in the DC MSHR until the sub-block lands.
			req.Probe.SetCause(mem.StallMSHR)
		}
		if req.Write {
			m.dirty = true
		}
		// Critical-data-first applies to every demanded sub-block, not
		// just the one that opened the MSHR: fetch it out of band, or
		// promote the already-issued fill read to the priority class.
		if m.issued&(1<<si) == 0 {
			t.fetchSub(m, si, true, req.Probe)
		} else {
			t.ddr.Promote(m.lineAddr<<tidLineBits | uint64(si)*mem.BlockSize)
		}
		return
	}
	if len(t.mshrs) >= t.maxMSHR {
		t.tidStats.MSHRStalls++
		if req.Probe != nil {
			req.Probe.SetCause(mem.StallMSHR)
		}
		t.pending = append(t.pending, tidPending{req: req, done: done})
		return
	}

	// Victim selection and eviction (writeback of the whole 1 KB line if
	// dirty), then allocation.
	ways := t.ways(set)
	way := 0
	oldest := ^uint64(0)
	for w := range ways {
		if !ways[w].valid {
			way = w
			oldest = 0
			break
		}
		if ways[w].lru < oldest {
			oldest = ways[w].lru
			way = w
		}
	}
	v := &ways[way]
	if v.valid && v.dirty {
		t.tidStats.Writebacks++
		victimLine := v.tag*t.numSets + set
		for s := uint64(0); s < tidSubPerLine; s++ {
			src := t.dataAddr(set, way, s*mem.BlockSize)
			dst := victimLine<<tidLineBits | s*mem.BlockSize
			t.hbm.AccessArg(src, false, mem.KindWriteback, false, t.wb, dst)
		}
	}
	v.valid = false
	v.dirty = false

	m := t.getMSHR()
	m.lineAddr, m.set, m.way = lineAddr, set, way
	m.waiters = append(m.waiters, tidWaiter{si: si, write: req.Write, done: done})
	m.dirty = req.Write
	t.mshrs[lineAddr] = m

	// Critical-data-first: fetch the demanded sub-block with priority,
	// then the rest of the line. The demand's probe rides the priority
	// fetch so its stall cycles attribute to the DDR path, not the MSHR.
	t.fetchSub(m, si, true, req.Probe)
	t.issueFills(m)
}

// issueFills keeps up to eight line-fill reads outstanding.
func (t *TiD) issueFills(m *tidMSHR) {
	for m.inFlight < 8 {
		var si uint
		found := false
		for s := uint(0); s < tidSubPerLine; s++ {
			if m.issued&(1<<s) == 0 {
				si = s
				found = true
				break
			}
		}
		if !found {
			return
		}
		t.fetchSub(m, si, false, nil)
	}
}

func (t *TiD) fetchSub(m *tidMSHR, si uint, priority bool, p *mem.Probe) {
	if m.issued&(1<<si) != 0 {
		return
	}
	m.issued |= 1 << si
	m.inFlight++
	src := m.lineAddr<<tidLineBits | uint64(si)*mem.BlockSize
	t.ddr.AccessProbe(src, false, mem.KindFill, priority, p,
		t.wrap(p, metrics.SpanDDR, m.arrive[si]))
}

func (t *TiD) subArrived(m *tidMSHR, si uint) {
	m.inFlight--
	m.arrived |= 1 << si
	// Fill the sub-block into the data array.
	da := t.dataAddr(m.set, m.way, uint64(si)*mem.BlockSize)
	t.hbm.Access(da, true, mem.KindFill, false, m.fill)
	// Early restart: serve waiters for this sub-block.
	kept := m.waiters[:0]
	for _, w := range m.waiters {
		if w.si == si {
			wa := t.dataAddr(m.set, m.way, uint64(w.si)*mem.BlockSize)
			t.hbm.Access(wa, w.write, mem.KindDemand, false, w.done)
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = kept
	t.issueFills(m)
}

func (t *TiD) fillComplete(m *tidMSHR) {
	l := &t.lines[m.set*tidWays+uint64(m.way)]
	t.lruTick++
	*l = tidLine{tag: m.lineAddr / t.numSets, valid: true, dirty: m.dirty, lru: t.lruTick}
	// Tag install / state update.
	t.hbm.Access(t.metaAddr(m.set), true, mem.KindMetadata, false, nil)
	delete(t.mshrs, m.lineAddr)
	t.putMSHR(m)
	if len(t.pending) > t.pendHead {
		p := t.pending[t.pendHead]
		t.pending[t.pendHead] = tidPending{} // release the done closure
		t.pendHead++
		switch {
		case t.pendHead == len(t.pending):
			t.pending = t.pending[:0]
			t.pendHead = 0
		case t.pendHead >= 64 && 2*t.pendHead >= len(t.pending):
			// A queue that never drains would grow its array with every
			// stall: slide the live half down instead.
			n := copy(t.pending, t.pending[t.pendHead:])
			clear(t.pending[n:])
			t.pending = t.pending[:n]
			t.pendHead = 0
		}
		r := t.getRetry()
		r.req, r.done = p.req, p.done
		t.eng.Schedule(0, r.fn)
	}
}

// getMSHR takes an MSHR from the freelist, building the instance and its
// completions only on first use.
func (t *TiD) getMSHR() *tidMSHR {
	if n := len(t.freeMSHRs); n > 0 {
		m := t.freeMSHRs[n-1]
		t.freeMSHRs = t.freeMSHRs[:n-1]
		return m
	}
	m := &tidMSHR{} //nomadlint:ignore poolalloc -- freelist constructor: the one allocation the pool amortizes
	for si := range m.arrive {
		si := uint(si)
		m.arrive[si] = func() { t.subArrived(m, si) }
	}
	m.fill = func() {
		m.writes++
		if m.writes == tidSubPerLine {
			t.fillComplete(m)
		}
	}
	return m
}

// putMSHR resets a completed MSHR, keeping its completions and waiter
// array, and returns it to the freelist.
func (t *TiD) putMSHR(m *tidMSHR) {
	m.arrived, m.issued, m.inFlight, m.writes, m.dirty = 0, 0, 0, 0, false
	m.waiters = m.waiters[:0]
	t.freeMSHRs = append(t.freeMSHRs, m)
}

// getRetry takes a retry from the freelist; its fn recycles it before
// re-running the lookup (release-before-callback: the lookup may stall
// again and queue another retry).
func (t *TiD) getRetry() *tidRetry {
	if n := len(t.retries); n > 0 {
		r := t.retries[n-1]
		t.retries = t.retries[:n-1]
		return r
	}
	r := &tidRetry{} //nomadlint:ignore poolalloc -- freelist constructor: the one allocation the pool amortizes
	r.fn = func() {
		req, done := r.req, r.done
		r.req, r.done = mem.Request{}, nil
		t.retries = append(t.retries, r)
		t.lookup(req, done)
	}
	return r
}

// Walker implements Scheme: conventional translation only.
func (t *TiD) Walker() tlb.Walker { return tidWalker{t} }

type tidWalker struct{ t *TiD }

func (w tidWalker) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	w.t.eng.Schedule(w.t.walk, func() {
		vpn := mem.PageNum(vaddr)
		pte := w.t.mm.PTEOf(coreID, vpn)
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	})
}

// Directory implements Scheme.
func (t *TiD) Directory() tlb.Directory { return nil }

// NoteStore implements Scheme.
func (t *TiD) NoteStore(coreID int, e tlb.Entry) {}

// Drained implements Scheme.
func (t *TiD) Drained() bool { return len(t.mshrs) == 0 }

// AccessStats returns the scheme's DC-controller statistics.
func (t *TiD) AccessStats() *AccessStats { return &t.stats }

// TiDStats returns the HW-scheme counters.
func (t *TiD) TiDStats() *TiDStats { return &t.tidStats }
