// Package core implements the paper's contribution: the NOMAD DRAM cache
// with decoupled tag-data management. The front-end (frontend.go) is the OS
// side — DC tag miss handler and background eviction daemon operating on the
// osmem substrate. This file is the back-end hardware: the memory-mapped
// command interface, page copy status/information holding registers
// (PCSHRs), and page copy buffers (§III-D), supporting centralized and
// distributed organizations (§III-F) and the area-optimized n-PCSHR /
// m-buffer split (§IV-B.7).
package core

import (
	"fmt"
	"math/bits"

	"nomad/internal/check"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// CommandType distinguishes the two back-end commands (the T bit).
type CommandType uint8

const (
	CmdFill CommandType = iota
	CmdWriteback
)

func (t CommandType) String() string {
	if t == CmdFill {
		return "fill"
	}
	return "writeback"
}

// Command is what the front-end writes into the interface register: type,
// PFN, CFN, and the faulting offset (76 bits in hardware).
type Command struct {
	Type   CommandType
	PFN    uint64
	CFN    uint64
	Offset uint64 // byte offset of the demand access (sets P/PI on fills)
}

// MaxPCSHRs bounds BackendConfig.PCSHRs: 32 times the largest count the
// evaluation sweeps (Fig. 12), far beyond any modeled design. Callers reject
// larger counts before building a back-end.
const MaxPCSHRs = 1024

// BackendConfig sizes the back-end hardware.
type BackendConfig struct {
	// PCSHRs is the total number of page copy status registers, at most
	// MaxPCSHRs.
	PCSHRs int
	// CopyBuffers is the number of 4 KB page copy buffers; 0 means one
	// per PCSHR (the default design). Fewer buffers than PCSHRs is the
	// area-optimized design: commands occupy PCSHRs immediately but wait
	// for a buffer before moving data.
	CopyBuffers int
	// SubEntries is the number of pending-access sub-entries per PCSHR.
	SubEntries int
	// MaxReadsInFlight paces each PCSHR's sub-block reads.
	MaxReadsInFlight int
	// Distributed partitions the PCSHR and buffer pools into one group
	// per HBM channel, with commands routed by CFN low bits (§III-F).
	// FIFO frame allocation spreads consecutive CFNs uniformly across
	// groups, which is why NOMAD tolerates distribution (Fig. 16).
	Distributed bool
	// BufferReadLatency is the latency of servicing a data miss from a
	// page copy buffer instead of the on-package DRAM.
	BufferReadLatency uint64
	// VerifyLatency is the PCSHR CAM-lookup cost added to every DC
	// access. The paper's CACTI analysis gives 0.21 CPU cycles, i.e. 0
	// in an integer model; it is configurable for the +1-cycle
	// sensitivity study (§IV-B.5).
	VerifyLatency uint64
	// NoCriticalFirst disables critical-data-first scheduling (the P/PI
	// mechanism of §III-D.2) for ablation: fills proceed strictly
	// sequentially and demand misses are not elevated.
	NoCriticalFirst bool
}

// DefaultBackendConfig returns the evaluation default: 16 PCSHRs, paired
// buffers, 4 sub-entries, centralized.
func DefaultBackendConfig() BackendConfig {
	return BackendConfig{
		PCSHRs:            16,
		CopyBuffers:       0,
		SubEntries:        4,
		MaxReadsInFlight:  8,
		BufferReadLatency: 20,
	}
}

func (c BackendConfig) normalized() BackendConfig {
	if c.PCSHRs <= 0 {
		c.PCSHRs = 16
	}
	if c.CopyBuffers <= 0 || c.CopyBuffers > c.PCSHRs {
		c.CopyBuffers = c.PCSHRs
	}
	if c.SubEntries <= 0 {
		c.SubEntries = 4
	}
	if c.MaxReadsInFlight <= 0 {
		c.MaxReadsInFlight = 8
	}
	if c.BufferReadLatency == 0 {
		c.BufferReadLatency = 20
	}
	return c
}

// BackendStats counts back-end events.
type BackendStats struct {
	Fills      uint64
	Writebacks uint64
	// DataHits: DC accesses with no matching PCSHR (whole page present).
	DataHits uint64
	// DataMisses: DC accesses that matched an in-transfer page.
	DataMisses uint64
	// BufferHits: data misses serviced directly from a page copy buffer
	// (the paper reports 91.6% of data misses hit the buffer).
	BufferHits uint64
	// SubEntryWaits: data misses that had to wait for a sub-block.
	SubEntryWaits uint64
	// SubEntryOverflows: data misses that found all sub-entries busy.
	SubEntryOverflows uint64
	// WriteMissAbsorbed: write data misses deposited into a buffer,
	// saving the corresponding off-package read.
	WriteMissAbsorbed uint64
	// AcceptWaitSum/AcceptCount: cycles commands waited for a free PCSHR
	// (the PCSHR-contention component of tag-management latency).
	AcceptWaitSum uint64
	AcceptCount   uint64
	// BufferWaitSum: cycles PCSHRs waited for a copy buffer
	// (area-optimized design).
	BufferWaitSum uint64
	// PCSHROccupancySum samples occupancy at each acceptance.
	PCSHROccupancySum uint64
}

// BufferHitRate returns buffer hits / data misses.
func (s *BackendStats) BufferHitRate() float64 {
	if s.DataMisses == 0 {
		return 0
	}
	return float64(s.BufferHits) / float64(s.DataMisses)
}

type subEntry struct {
	si   uint
	done mem.Done
	// probe/parkedAt carry latency provenance: while parked the probe
	// reads StallPCSHR, and the wake emits a pcshr_wait span.
	probe    *mem.Probe
	parkedAt uint64
}

type pcshr struct {
	// b is the owning Backend: the register itself is the dram.Completer
	// for its sub-block bursts, so issuing a read or write costs no
	// closure allocation (the callback routes through Complete with a
	// packed argument).
	b     *Backend
	valid bool
	// epoch invalidates in-flight DRAM callbacks from a previous
	// occupancy of this register: a write-absorbed sub-block lets the
	// command complete while its superseded off-package read is still in
	// flight.
	epoch uint64
	cmd   Command
	// prio holds prioritized sub-block indexes not yet read-issued;
	// prioHead indexes the next one. Consuming by index (not re-slicing)
	// keeps the backing array, so an epoch's appends reuse capacity left
	// by earlier occupancies instead of reallocating.
	prio       []uint
	prioHead   int
	nextSeq    uint   // next sequential sub-block to consider
	rvec       uint64 // read issued (or skipped via write-miss absorption)
	bvec       uint64 // sub-block present in the page copy buffer
	wvec       uint64 // destination write issued
	writesDone uint
	inFlight   int
	started    bool   // has a copy buffer
	bufWaitAt  uint64 // cycle the register began waiting for a buffer
	subs       []subEntry
	// overflow queues sub-entry arrivals beyond cfg.SubEntries; ovHead
	// indexes the next to drain (same capacity-preserving scheme as prio).
	overflow []subEntry
	ovHead   int
	group    int
}

type pendingCmd struct {
	cmd     Command
	arrival uint64
	done    mem.Done
}

type group struct {
	regs     []*pcshr
	freeBufs int
	bufs     int // total buffers in the group
	// fillQueue has acceptance priority over wbQueue: a waiting cache
	// fill is on an application thread's critical path (inside the tag
	// miss handler), while writebacks are background work.
	fillQueue  []pendingCmd
	wbQueue    []pendingCmd
	bufWaiters []*pcshr
}

// Backend is the NOMAD back-end hardware. HBM holds the DRAM cache; DDR is
// the off-package memory.
type Backend struct {
	cfg    BackendConfig
	eng    *sim.Engine
	hbm    *dram.Device
	ddr    *dram.Device
	groups []group
	// byCFN indexes active PCSHRs by CFN for O(1) access checks (models
	// the CAM).
	byCFN map[uint64]*pcshr
	// byPFN indexes active *writeback* PCSHRs by PFN so physical-space
	// accesses racing a writeback are serviced coherently.
	byPFN map[uint64]*pcshr
	stats BackendStats
	// pcshrOcc samples register occupancy at each acceptance; bufInUse
	// samples buffers in use at each buffer grant (nil until
	// RegisterMetrics). trace records the PCSHR and fill lifecycle.
	pcshrOcc *metrics.Histogram
	bufInUse *metrics.Histogram
	// occPeak is the highest register occupancy seen since the last
	// timeline interval read (Fig. 14's burst high-water mark).
	occPeak int
	trace   *metrics.Trace
	spans   *metrics.SpanRing
	// onComplete, if set, is called when any command completes (tests).
	onComplete func(Command)
}

// NewBackend builds the back-end over the two DRAM devices.
func NewBackend(eng *sim.Engine, cfg BackendConfig, hbm, ddr *dram.Device) *Backend {
	cfg = cfg.normalized()
	ngroups := 1
	if cfg.Distributed {
		ngroups = hbm.Config().Channels
		if cfg.PCSHRs%ngroups != 0 && cfg.PCSHRs > ngroups {
			// Round up so every group has at least one register.
			cfg.PCSHRs = ((cfg.PCSHRs + ngroups - 1) / ngroups) * ngroups
		}
		if cfg.PCSHRs < ngroups {
			ngroups = cfg.PCSHRs // tiny configs: fewer groups than channels
		}
	}
	b := &Backend{
		cfg:    cfg,
		eng:    eng,
		hbm:    hbm,
		ddr:    ddr,
		groups: make([]group, ngroups),
		byCFN:  make(map[uint64]*pcshr),
		byPFN:  make(map[uint64]*pcshr),
	}
	per := cfg.PCSHRs / ngroups
	bufPer := cfg.CopyBuffers / ngroups
	if bufPer == 0 {
		bufPer = 1
	}
	for g := range b.groups {
		b.groups[g].regs = make([]*pcshr, per)
		for i := range b.groups[g].regs {
			b.groups[g].regs[i] = &pcshr{group: g, b: b}
		}
		b.groups[g].freeBufs = bufPer
		b.groups[g].bufs = bufPer
	}
	return b
}

// Stats returns the back-end counters.
func (b *Backend) Stats() *BackendStats { return &b.stats }

// RegisterMetrics exposes the back-end counters in reg under prefix
// (conventionally "backend") plus PCSHR- and buffer-occupancy histograms,
// and attaches the trace for PCSHR/fill lifecycle events.
func (b *Backend) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s := &b.stats
	reg.Counter(prefix+".fills", &s.Fills)
	reg.Counter(prefix+".writebacks", &s.Writebacks)
	reg.Counter(prefix+".data_hits", &s.DataHits)
	reg.Counter(prefix+".data_misses", &s.DataMisses)
	reg.Counter(prefix+".buffer_hits", &s.BufferHits)
	reg.Counter(prefix+".sub_entry_waits", &s.SubEntryWaits)
	reg.Counter(prefix+".sub_entry_overflows", &s.SubEntryOverflows)
	reg.Counter(prefix+".write_miss_absorbed", &s.WriteMissAbsorbed)
	reg.Counter(prefix+".accept_wait_sum", &s.AcceptWaitSum)
	reg.Counter(prefix+".accept_count", &s.AcceptCount)
	reg.Counter(prefix+".buffer_wait_sum", &s.BufferWaitSum)
	reg.Counter(prefix+".pcshr_occupancy_sum", &s.PCSHROccupancySum)
	// Timeline column: per-interval PCSHR occupancy high-water. The peak is
	// maintained at each allocation and read-and-reset once per window, so
	// a burst that fills the registers mid-window is visible even if they
	// drain again before the boundary.
	reg.IntervalFunc(prefix+".pcshr_highwater",
		func(now uint64) { b.occPeak = b.ActivePCSHRs() },
		func(now uint64) float64 {
			hw := b.occPeak
			if cur := b.ActivePCSHRs(); cur > hw {
				hw = cur
			}
			b.occPeak = b.ActivePCSHRs()
			return float64(hw)
		})
	b.pcshrOcc = reg.Histogram(prefix + ".pcshr_occupancy")
	b.bufInUse = reg.Histogram(prefix + ".buffer_in_use")
	b.trace = reg.Trace()
	b.spans = reg.Spans()
}

// emitSpan records one hop of a sampled access (no-op otherwise).
func (b *Backend) emitSpan(p *mem.Probe, kind metrics.SpanKind, start, end uint64) {
	if b.spans == nil || p == nil || p.SpanID == 0 {
		return
	}
	b.spans.Emit(metrics.Span{ID: p.SpanID, Kind: kind, Core: p.Core, Start: start, End: end})
}

// Config returns the normalized configuration.
func (b *Backend) Config() BackendConfig { return b.cfg }

func (b *Backend) groupOf(cfn uint64) *group {
	return &b.groups[int(cfn)%len(b.groups)]
}

// Send writes a command into the back-end interface. accepted fires when a
// PCSHR has been allocated (the interface returns to the idle state); until
// then the interface is busy and the OS routine holding it is stalled —
// which is how PCSHR exhaustion shows up as tag-management latency
// (Fig. 14).
func (b *Backend) Send(cmd Command, accepted mem.Done) {
	g := b.groupOf(cmd.CFN)
	pc := pendingCmd{cmd: cmd, arrival: b.eng.Now(), done: accepted}
	if cmd.Type == CmdFill {
		g.fillQueue = append(g.fillQueue, pc)
	} else {
		g.wbQueue = append(g.wbQueue, pc)
	}
	b.drainCommands(g)
}

func (b *Backend) drainCommands(g *group) {
	for len(g.fillQueue)+len(g.wbQueue) > 0 {
		var free *pcshr
		occupied := 0
		for _, r := range g.regs {
			if r.valid {
				occupied++
			} else if free == nil {
				free = r
			}
		}
		if free == nil {
			return
		}
		var pc pendingCmd
		if len(g.fillQueue) > 0 {
			pc = g.fillQueue[0]
			g.fillQueue = g.fillQueue[1:]
		} else {
			pc = g.wbQueue[0]
			g.wbQueue = g.wbQueue[1:]
		}
		b.stats.AcceptWaitSum += b.eng.Now() - pc.arrival
		b.stats.AcceptCount++
		b.stats.PCSHROccupancySum += uint64(occupied)
		b.pcshrOcc.Observe(uint64(occupied))
		if occupied+1 > b.occPeak {
			b.occPeak = occupied + 1
		}
		b.allocate(free, pc.cmd)
		if pc.done != nil {
			pc.done()
		}
	}
}

func (b *Backend) allocate(r *pcshr, cmd Command) {
	if check.Enabled {
		check.Assert(!r.valid, "backend: allocating an occupied PCSHR (cfn %#x)", cmd.CFN)
		if cmd.Type == CmdFill {
			_, dup := b.byCFN[cmd.CFN]
			check.Assert(!dup, "backend: second concurrent fill for cfn %#x", cmd.CFN)
		} else {
			_, dup := b.byPFN[cmd.PFN]
			check.Assert(!dup, "backend: second concurrent writeback for pfn %#x", cmd.PFN)
		}
	}
	*r = pcshr{valid: true, cmd: cmd, group: r.group, epoch: r.epoch + 1, b: r.b,
		prio: r.prio[:0], subs: r.subs[:0], overflow: r.overflow[:0]}
	b.trace.Emit(b.eng.Now(), metrics.EvPCSHRAlloc, cmd.CFN, cmd.PFN)
	if cmd.Type == CmdFill {
		b.stats.Fills++
		if !b.cfg.NoCriticalFirst {
			// Critical-data-first: the P bit is set and PI is
			// deduced from the interface register's offset field.
			r.prio = append(r.prio, uint(cmd.Offset>>mem.BlockBits)&(mem.SubBlocksPerPage-1))
		}
		b.byCFN[cmd.CFN] = r
	} else {
		b.stats.Writebacks++
		b.byPFN[cmd.PFN] = r
		// A writeback's source frame has already been released by the
		// OS, so CFN accesses to it cannot occur; no byCFN entry.
	}
	g := &b.groups[r.group]
	if g.freeBufs > 0 {
		g.freeBufs--
		b.bufInUse.Observe(uint64(g.bufs - g.freeBufs))
		b.start(r)
	} else {
		r.bufWaitAt = b.eng.Now()
		g.bufWaiters = append(g.bufWaiters, r)
	}
}

func (b *Backend) start(r *pcshr) {
	r.started = true
	if r.cmd.Type == CmdFill {
		b.trace.Emit(b.eng.Now(), metrics.EvFillStart, r.cmd.CFN, r.cmd.PFN)
	}
	b.issueReads(r)
}

// issueReads keeps up to MaxReadsInFlight sub-block reads outstanding,
// prioritized sub-blocks first, then sequential order.
func (b *Backend) issueReads(r *pcshr) {
	for r.inFlight < b.cfg.MaxReadsInFlight {
		si, priority, ok := b.nextRead(r)
		if !ok {
			return
		}
		r.rvec |= 1 << si
		r.inFlight++
		arg := r.epoch<<8 | uint64(si)<<1 | completeRead
		if r.cmd.Type == CmdFill {
			src := mem.AddrInFrame(r.cmd.PFN, uint64(si)*mem.BlockSize)
			b.ddr.AccessArg(src, false, mem.KindFill, priority, r, arg)
		} else {
			src := mem.AddrInFrame(r.cmd.CFN, uint64(si)*mem.BlockSize)
			b.hbm.AccessArg(src, false, mem.KindWriteback, priority, r, arg)
		}
	}
}

// Completion-argument packing for pcshr.Complete: bit 0 distinguishes read
// arrivals from write completions, bits 1..7 carry the sub-block index, and
// the rest is the register epoch that invalidates stale callbacks.
const (
	completeWrite = uint64(0)
	completeRead  = uint64(1)
)

// Complete implements dram.Completer: one long-lived callback object per
// register instead of one closure per burst.
func (r *pcshr) Complete(arg uint64) {
	epoch := arg >> 8
	si := uint(arg>>1) & 0x7f
	if arg&1 == completeRead {
		r.b.readArrived(r, epoch, si)
	} else {
		r.b.writeDone(r, epoch)
	}
}

// nextRead picks the next sub-block to read. Demand-triggered (prioritized)
// sub-blocks come first and ride the DRAM priority path
// (critical-data-first), then the remaining sub-blocks in sequential order.
func (b *Backend) nextRead(r *pcshr) (si uint, priority, ok bool) {
	for r.prioHead < len(r.prio) {
		si = r.prio[r.prioHead]
		r.prioHead++
		if r.rvec&(1<<si) == 0 {
			return si, true, true
		}
	}
	r.prio = r.prio[:0] // fully consumed: rewind so later appends reuse it
	r.prioHead = 0
	for r.nextSeq < mem.SubBlocksPerPage {
		si = r.nextSeq
		r.nextSeq++
		if r.rvec&(1<<si) == 0 {
			return si, false, true
		}
	}
	return 0, false, false
}

// readArrived: a sub-block landed in the page copy buffer.
func (b *Backend) readArrived(r *pcshr, epoch uint64, si uint) {
	if r.epoch != epoch {
		return // register was recycled; this read belongs to a dead command
	}
	r.inFlight--
	if r.bvec&(1<<si) != 0 {
		// A demand write already deposited fresher data for this
		// sub-block; drop the stale read.
		b.issueReads(r)
		return
	}
	r.bvec |= 1 << si
	b.serviceSubEntries(r, si)
	b.issueWrite(r, si)
	b.issueReads(r)
}

// issueWrite moves a buffered sub-block to its destination.
func (b *Backend) issueWrite(r *pcshr, si uint) {
	r.wvec |= 1 << si
	arg := r.epoch<<8 | uint64(si)<<1 | completeWrite
	if r.cmd.Type == CmdFill {
		dst := mem.AddrInFrame(r.cmd.CFN, uint64(si)*mem.BlockSize)
		b.hbm.AccessArg(dst, true, mem.KindFill, false, r, arg)
	} else {
		dst := mem.AddrInFrame(r.cmd.PFN, uint64(si)*mem.BlockSize)
		b.ddr.AccessArg(dst, true, mem.KindWriteback, false, r, arg)
	}
}

func (b *Backend) writeDone(r *pcshr, epoch uint64) {
	if r.epoch != epoch {
		return
	}
	r.writesDone++
	if r.writesDone == mem.SubBlocksPerPage {
		b.complete(r)
	}
}

func (b *Backend) complete(r *pcshr) {
	cmd := r.cmd
	if check.Enabled {
		// PCSHR retirement: every sub-block was read (or write-absorbed),
		// buffered, and written out, and no access is still parked.
		check.Assert(r.writesDone == mem.SubBlocksPerPage,
			"backend: retiring PCSHR for %s %#x with %d/%d writes done",
			cmd.Type, cmd.CFN, r.writesDone, uint(mem.SubBlocksPerPage))
		check.Assert(bits.OnesCount64(r.rvec) == mem.SubBlocksPerPage &&
			bits.OnesCount64(r.bvec) == mem.SubBlocksPerPage &&
			bits.OnesCount64(r.wvec) == mem.SubBlocksPerPage,
			"backend: retiring PCSHR for %s %#x with incomplete vectors r=%#x b=%#x w=%#x",
			cmd.Type, cmd.CFN, r.rvec, r.bvec, r.wvec)
		check.Assert(len(r.subs) == 0 && len(r.overflow) == r.ovHead,
			"backend: retiring PCSHR for %s %#x with %d sub-entries and %d overflow waiters parked",
			cmd.Type, cmd.CFN, len(r.subs), len(r.overflow)-r.ovHead)
		// r.inFlight may legitimately be nonzero here: a write-absorbed
		// sub-block lets the command finish while its superseded read is
		// still in flight (the epoch check drops it on arrival).
	}
	b.trace.Emit(b.eng.Now(), metrics.EvPCSHRRetire, cmd.CFN, cmd.PFN)
	if cmd.Type == CmdFill {
		b.trace.Emit(b.eng.Now(), metrics.EvFillDone, cmd.CFN, cmd.PFN)
		delete(b.byCFN, cmd.CFN)
	} else {
		delete(b.byPFN, cmd.PFN)
	}
	// Service any stragglers (shouldn't exist: every sub-block was
	// serviced on arrival) and recycle the buffer and register.
	g := &b.groups[r.group]
	// Reset the register, preserving the Completer backref and the parked
	// slices' capacity (their contents are gone: all empty per the
	// invariants above, and prio entries were consumed by nextRead).
	*r = pcshr{group: r.group, epoch: r.epoch + 1, b: r.b,
		prio: r.prio[:0], subs: r.subs[:0], overflow: r.overflow[:0]}
	if len(g.bufWaiters) > 0 {
		next := g.bufWaiters[0]
		g.bufWaiters = g.bufWaiters[1:]
		b.stats.BufferWaitSum += b.eng.Now() - next.bufWaitAt
		b.start(next)
	} else {
		g.freeBufs++
	}
	if check.Enabled {
		check.Assert(g.freeBufs >= 0 && g.freeBufs <= g.bufs,
			"backend: group free-buffer count %d outside [0,%d]", g.freeBufs, g.bufs)
	}
	b.drainCommands(g)
	if b.onComplete != nil {
		b.onComplete(cmd)
	}
}

// scheduleDone fires a completion callback after the buffer-read latency,
// tolerating nil (writes from cache writebacks carry no callback).
func (b *Backend) scheduleDone(done mem.Done) {
	if done == nil {
		return
	}
	b.eng.Schedule(b.cfg.BufferReadLatency, done)
}

// serviceSubEntries wakes pending accesses for sub-block si and promotes
// overflow entries into freed sub-entry slots.
func (b *Backend) serviceSubEntries(r *pcshr, si uint) {
	kept := r.subs[:0]
	for _, se := range r.subs {
		if se.si == si {
			b.emitSpan(se.probe, metrics.SpanPCSHRWait, se.parkedAt, b.eng.Now())
			b.scheduleDone(se.done)
		} else {
			kept = append(kept, se)
		}
	}
	r.subs = kept
	for r.ovHead < len(r.overflow) && len(r.subs) < b.cfg.SubEntries {
		se := r.overflow[r.ovHead]
		r.overflow[r.ovHead] = subEntry{} // release the done/probe refs
		r.ovHead++
		if se.si == si || r.bvec&(1<<se.si) != 0 {
			b.emitSpan(se.probe, metrics.SpanPCSHRWait, se.parkedAt, b.eng.Now())
			b.scheduleDone(se.done)
			continue
		}
		b.park(r, se)
	}
	if r.ovHead == len(r.overflow) {
		r.overflow = r.overflow[:0] // fully drained: rewind
		r.ovHead = 0
	}
}

func (b *Backend) park(r *pcshr, se subEntry) {
	r.subs = append(r.subs, se)
	if b.cfg.NoCriticalFirst {
		return
	}
	// Demand for a not-yet-read sub-block elevates it to the priority
	// path (critical-data-first beyond the initial PI); an already-issued
	// read is promoted in the source device's queue.
	if r.rvec&(1<<se.si) == 0 {
		r.prio = append(r.prio, se.si)
		if r.started {
			b.issueReads(r)
		}
		return
	}
	if r.cmd.Type == CmdFill {
		b.ddr.Promote(mem.AddrInFrame(r.cmd.PFN, uint64(se.si)*mem.BlockSize))
	} else {
		b.hbm.Promote(mem.AddrInFrame(r.cmd.CFN, uint64(se.si)*mem.BlockSize))
	}
}

// AccessResult describes how the back-end disposed of a DC access check.
type AccessResult uint8

const (
	// DataHit: no PCSHR matched; the access proceeds to the DRAM cache.
	DataHit AccessResult = iota
	// ServedFromBuffer: the access was completed from a page copy
	// buffer; the caller must NOT access DRAM (bandwidth saved).
	ServedFromBuffer
	// Parked: the access waits in a sub-entry; done fires when the
	// sub-block arrives. The caller must not access DRAM.
	Parked
	// Absorbed: a write data miss was deposited into the buffer.
	Absorbed
)

// CheckCacheAccess verifies data presence for an access to cache frame cfn
// (every DC access performs this PCSHR lookup, §III-D.3). For results other
// than DataHit the back-end takes ownership of completion and will invoke
// done; for DataHit the caller proceeds to the on-package DRAM and invokes
// done itself. VerifyLatency is charged by the caller (see scheme adapter).
// p, when non-nil, is the access's latency-provenance probe: parked
// accesses read StallPCSHR and sampled ones emit buffer / pcshr_wait spans.
func (b *Backend) CheckCacheAccess(cfn uint64, si uint, write bool, p *mem.Probe, done mem.Done) AccessResult {
	r, ok := b.byCFN[cfn]
	if !ok {
		b.stats.DataHits++
		return DataHit
	}
	b.stats.DataMisses++
	if write {
		// Write data miss: deposit into the page copy buffer, set B
		// (and suppress the off-package read if not yet issued).
		if r.rvec&(1<<si) == 0 {
			r.rvec |= 1 << si
			b.stats.WriteMissAbsorbed++
		}
		first := r.bvec&(1<<si) == 0
		r.bvec |= 1 << si
		if first {
			b.serviceSubEntries(r, si)
			b.issueWrite(r, si)
		}
		b.scheduleDone(done)
		return Absorbed
	}
	if r.bvec&(1<<si) != 0 {
		// Page copy buffer hit: serviced without touching the
		// on-package DRAM.
		b.stats.BufferHits++
		b.emitSpan(p, metrics.SpanBuffer, b.eng.Now(), b.eng.Now()+b.cfg.BufferReadLatency)
		b.scheduleDone(done)
		return ServedFromBuffer
	}
	b.stats.SubEntryWaits++
	if p != nil {
		p.SetCause(mem.StallPCSHR)
	}
	se := subEntry{si: si, done: done, probe: p, parkedAt: b.eng.Now()}
	if len(r.subs) >= b.cfg.SubEntries {
		b.stats.SubEntryOverflows++
		b.trace.Emit(b.eng.Now(), metrics.EvPCSHROverflow, cfn, uint64(si))
		r.overflow = append(r.overflow, se)
		return Parked
	}
	b.park(r, se)
	return Parked
}

// CheckPhysicalAccess consults writeback PCSHRs for an access to physical
// frame pfn. A page being written back has been un-cached by the OS, so
// demand accesses target off-package memory; serving them from the copy
// buffer keeps them coherent with the not-yet-written data.
func (b *Backend) CheckPhysicalAccess(pfn uint64, si uint, write bool, p *mem.Probe, done mem.Done) AccessResult {
	r, ok := b.byPFN[pfn]
	if !ok {
		return DataHit
	}
	b.stats.DataMisses++
	if write {
		first := r.bvec&(1<<si) == 0
		if r.rvec&(1<<si) == 0 {
			r.rvec |= 1 << si
		}
		r.bvec |= 1 << si
		if first {
			b.serviceSubEntries(r, si)
			b.issueWrite(r, si)
		}
		b.scheduleDone(done)
		return Absorbed
	}
	if r.bvec&(1<<si) != 0 {
		b.stats.BufferHits++
		b.emitSpan(p, metrics.SpanBuffer, b.eng.Now(), b.eng.Now()+b.cfg.BufferReadLatency)
		b.scheduleDone(done)
		return ServedFromBuffer
	}
	b.stats.SubEntryWaits++
	if p != nil {
		p.SetCause(mem.StallPCSHR)
	}
	se := subEntry{si: si, done: done, probe: p, parkedAt: b.eng.Now()}
	if len(r.subs) >= b.cfg.SubEntries {
		b.stats.SubEntryOverflows++
		b.trace.Emit(b.eng.Now(), metrics.EvPCSHROverflow, pfn, uint64(si))
		r.overflow = append(r.overflow, se)
		return Parked
	}
	b.park(r, se)
	return Parked
}

// InTransfer reports whether cfn has an active fill (for tests).
func (b *Backend) InTransfer(cfn uint64) bool {
	_, ok := b.byCFN[cfn]
	return ok
}

// ActivePCSHRs counts occupied registers across groups.
func (b *Backend) ActivePCSHRs() int {
	n := 0
	for gi := range b.groups {
		for _, r := range b.groups[gi].regs {
			if r.valid {
				n++
			}
		}
	}
	return n
}

// String describes the back-end organization.
func (b *Backend) String() string {
	org := "centralized"
	if b.cfg.Distributed {
		org = fmt.Sprintf("distributed(%d groups)", len(b.groups))
	}
	return fmt.Sprintf("backend{%d PCSHRs, %d buffers, %s}", b.cfg.PCSHRs, b.cfg.CopyBuffers, org)
}
