package schemes

import (
	"fmt"

	"nomad/internal/check"
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

// tidSet is one set of the tag store, 16 bytes: one word per way holding
// the way's tag in its low 28 bits and its valid bit, dirty bit and 2-bit
// recency rank in the top nibble. The recency order is exact LRU, kept as
// in the SRAM caches (see cache.setState): a way's last install or hit
// moves it to rank 0, and invalid ways are taken before ranks are read. A
// tag is the line address divided by the set count, PA >> 25 at the
// default 128 MB, so 28 bits cover 2^53 bytes of physical memory there.
//
// Way w's word holds its rank XOR w, so the zero value is an empty set with
// way w at rank w, and a new tag store needs no initialisation.
type tidSet struct {
	ways [tidWays]uint32
}

// The fields of a tidSet way word.
const (
	tidTagBits   = 28
	tidTagMask   = 1<<tidTagBits - 1
	tidRankShift = tidTagBits // rank 0 is the most recently used
	tidRankMask  = 3 << tidRankShift
	tidDirty     = 1 << 30
	tidValid     = 1 << 31
)

// tag returns way w's tag.
func (s *tidSet) tag(w int) uint64 { return uint64(s.ways[w] & tidTagMask) }

// rank returns way w's recency rank.
func (s *tidSet) rank(w int) int { return int(s.ways[w]>>tidRankShift&3) ^ w }

// touch moves way w to rank 0 and the ways more recent than it down one.
// A stored rank changes from a to b by XOR with a^b, whatever way it is.
func (s *tidSet) touch(w int) {
	r := s.rank(w)
	for v, x := range s.ways {
		if rv := int(x>>tidRankShift&3) ^ v; rv < r {
			s.ways[v] = x ^ uint32(rv^(rv+1))<<tidRankShift
		}
	}
	s.ways[w] ^= uint32(r) << tidRankShift
}

// hit makes way w the most recently used and, for a write, dirty.
func (s *tidSet) hit(w int, write bool) {
	s.touch(w)
	if write {
		s.ways[w] |= tidDirty
	}
}

// victim returns the way a miss takes: the lowest invalid way, else the
// least recently used one.
func (s *tidSet) victim() int {
	lru := 0
	for w, x := range s.ways {
		if x&tidValid == 0 {
			return w
		}
		if s.rank(w) == tidWays-1 {
			lru = w
		}
	}
	return lru
}

// install makes way w hold tag, valid, clean or dirty, and the most
// recently used. It panics on a tag wider than the record's 28 bits.
func (s *tidSet) install(w int, tag uint64, dirty bool) {
	if tag > tidTagMask {
		panic(fmt.Sprintf("tid: tag %#x does not fit the tag store's %d bits", tag, tidTagBits))
	}
	x := s.ways[w]&tidRankMask | uint32(tag) | tidValid
	if dirty {
		x |= tidDirty
	}
	s.ways[w] = x
	s.touch(w)
}

// invalidate clears way w's valid and dirty bits and leaves its rank.
func (s *tidSet) invalidate(w int) {
	s.ways[w] &^= tidValid | tidDirty
}

// audit asserts the record's structure under the invariants build: dirty
// ways are valid and the four ranks hold each way once.
func (s *tidSet) audit() {
	var seen uint8
	for w, x := range s.ways {
		check.Assert(x&tidDirty == 0 || x&tidValid != 0, "tid: way %d dirty but not valid (%#x)", w, x)
		seen |= 1 << s.rank(w)
	}
	check.Assert(seen == 1<<tidWays-1, "tid: recency ranks %#x are not a permutation", s.ways)
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
	dcPort
	eng      *sim.Engine
	hbm, ddr *dram.Device
	walker   physWalker

	// sets is the tag store, one record per set, empty as allocated.
	sets    []tidSet
	numSets uint64
	mshrs   map[uint64]*tidMSHR
	maxMSHR int
	// pending holds accesses stalled on a full MSHR file, FIFO; pendHead
	// indexes the next one so pops keep the backing array (re-slicing would
	// bleed capacity and force reallocations).
	pending  []tidPending
	pendHead int
	// freeMSHRs and retries are the freelists of the pooled carriers.
	freeMSHRs []*tidMSHR
	retries   []*tidRetry
	wb        tidWriteback
	metaBase  uint64

	tidStats TiDStats
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
		dcPort:   dcPort{now: eng.Now},
		eng:      eng,
		hbm:      hbm,
		ddr:      ddr,
		walker:   physWalker{eng, mm, walkLatency},
		sets:     make([]tidSet, numSets),
		numSets:  numSets,
		mshrs:    make(map[uint64]*tidMSHR),
		maxMSHR:  cfg.MSHRs,
		metaBase: cfg.CapacityBytes, // metadata region above the data array
		wb:       tidWriteback{ddr},
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

	s := &t.sets[set]
	for w, x := range s.ways {
		if x&tidValid != 0 && uint64(x&tidTagMask) == tag {
			t.tidStats.Hits++
			s.hit(w, req.Write)
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
	// dirty), then allocation. The victim stays invalid until its fill
	// completes, so a second miss to the set meanwhile may take the same
	// way again.
	s := &t.sets[set]
	way := s.victim()
	if s.ways[way]&tidDirty != 0 {
		t.tidStats.Writebacks++
		victimLine := s.tag(way)*t.numSets + set
		for sub := uint64(0); sub < tidSubPerLine; sub++ {
			src := t.dataAddr(set, way, sub*mem.BlockSize)
			dst := victimLine<<tidLineBits | sub*mem.BlockSize
			t.hbm.AccessArg(src, false, mem.KindWriteback, false, t.wb, dst)
		}
	}
	s.invalidate(way)

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
	s := &t.sets[m.set]
	s.install(m.way, m.lineAddr/t.numSets, m.dirty)
	if check.Enabled {
		s.audit()
	}
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
	m := &tidMSHR{}
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
	r := &tidRetry{}
	r.fn = func() {
		req, done := r.req, r.done
		r.req, r.done = mem.Request{}, nil
		t.retries = append(t.retries, r)
		t.lookup(req, done)
	}
	return r
}

// Walker implements Scheme: conventional translation only.
func (t *TiD) Walker() tlb.Walker { return &t.walker }

// Directory implements Scheme.
func (t *TiD) Directory() tlb.Directory { return nil }

// NoteStore implements Scheme.
func (t *TiD) NoteStore(coreID int, e tlb.Entry) {}

// Drained implements Scheme.
func (t *TiD) Drained() bool { return len(t.mshrs) == 0 }

// TiDStats returns the HW-scheme counters.
func (t *TiD) TiDStats() *TiDStats { return &t.tidStats }
