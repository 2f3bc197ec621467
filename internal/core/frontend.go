package core

import (
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/sim"
	"nomad/internal/tlb"
)

// Thread is the front-end's view of an application thread: OS routines
// suspend it while they run on its CPU (§IV-A: "CPUs executing OS routines
// are stalled during timing simulations as if the OS occupies the CPUs").
type Thread interface {
	Block()
	Unblock()
}

// Flusher invalidates the SRAM-cached lines of one DRAM-cache frame,
// writing dirty lines back to the DC (flush_cache_range, Algorithm 2 line
// 3). The system wires this to the full cache hierarchy.
type Flusher interface {
	FlushFrame(cfn uint64)
}

// Shootdowner performs an actual TLB shootdown: invalidate one core's
// translation for a virtual page. The TLB directory lets the eviction
// daemon avoid this protocol (Algorithm 2, lines 6-8), but when reclaim
// would otherwise starve — every frame TLB-resident, possible only when TLB
// reach rivals DC capacity — the OS must fall back to it, exactly as
// conventional kernels do.
type Shootdowner interface {
	Shootdown(coreID int, vpn uint64)
}

// FillBackend is the data-management engine fills and writebacks are
// offloaded to. The NOMAD Backend implements it; in blocking (TDC) mode the
// front-end wraps its page-copy functions in a blockingCopier.
type FillBackend interface {
	Send(cmd Command, accepted mem.Done)
}

// blockingCopier is the blocking (TDC) mode's fill engine: OS page copies
// running on the faulting CPU, so a command is accepted only when its copy
// completes. It tracks no in-flight transfers, so the eviction paths cannot
// see a frame whose copy is still running (DESIGN.md, deviation #8).
type blockingCopier struct {
	fill, writeback func(src, dst uint64, done mem.Done)
}

// Send implements FillBackend: done fires when the page copy completes.
func (c blockingCopier) Send(cmd Command, done mem.Done) {
	if cmd.Type == CmdWriteback {
		c.writeback(cmd.CFN, cmd.PFN, done)
		return
	}
	c.fill(cmd.PFN, cmd.CFN, done)
}

// transferTracker is the optional back-end view the eviction paths consult:
// a frame whose fill is still streaming through the data-management engine
// must not be reclaimed, or the recycled CFN would carry two concurrent
// fills through the PCSHR CAM (whose byCFN index tolerates one). The NOMAD
// Backend implements it; blockingCopier does not.
type transferTracker interface {
	InTransfer(cfn uint64) bool
}

// FrontendConfig parameterises the OS routines.
type FrontendConfig struct {
	// TagMgmtLatency is the handler's critical-section occupancy: two
	// dependent on-package reads plus synchronization, conservatively
	// 400 cycles in the paper.
	TagMgmtLatency uint64
	// Blocking selects TDC behaviour: the faulting thread waits for the
	// whole page copy, there is no global mutex (TDC locks only the
	// critical PTEs), and no tag-management penalty is charged.
	Blocking bool
	// WalkLatency is the page-table-walk cost preceding any handling.
	WalkLatency uint64
	// EvictionLowWater triggers the background daemon when free frames
	// drop below it; EvictionBatch frames are reclaimed per invocation.
	EvictionLowWater uint64
	EvictionBatch    int
	// DaemonBase/DaemonPerFrame model the daemon's critical-section
	// occupancy (CPD scans, PTE restores via reverse mappings).
	DaemonBase     uint64
	DaemonPerFrame uint64
	// CacheTouchThreshold enables selective caching (§V): a page is
	// cached only on its Nth uncached page-table walk; earlier touches
	// are served from off-package memory. 0 or 1 caches on first touch
	// (the paper's default behaviour).
	CacheTouchThreshold uint64
}

// DefaultFrontendConfig matches the evaluation setup.
func DefaultFrontendConfig() FrontendConfig {
	return FrontendConfig{
		TagMgmtLatency:   400,
		WalkLatency:      120,
		EvictionLowWater: 96,
		EvictionBatch:    128,
		DaemonBase:       100,
		DaemonPerFrame:   20,
	}
}

func (c FrontendConfig) normalized() FrontendConfig {
	d := DefaultFrontendConfig()
	if c.WalkLatency == 0 {
		c.WalkLatency = d.WalkLatency
	}
	if c.EvictionLowWater == 0 {
		c.EvictionLowWater = d.EvictionLowWater
	}
	if c.EvictionBatch == 0 {
		c.EvictionBatch = d.EvictionBatch
	}
	if c.DaemonBase == 0 {
		c.DaemonBase = d.DaemonBase
	}
	if c.DaemonPerFrame == 0 {
		c.DaemonPerFrame = d.DaemonPerFrame
	}
	return c
}

// FrontendStats counts OS-routine events.
type FrontendStats struct {
	TagHits     uint64 // walks that found the page cached
	TagMisses   uint64
	Uncacheable uint64
	// TagMgmtLatencySum/Max measure arrival-to-resume time of the tag
	// miss handler (Fig. 11/14: 400 cycles uncontended, up to thousands
	// under mutex and PCSHR contention).
	TagMgmtLatencySum uint64
	TagMgmtLatencyMax uint64
	// MutexWaitSum isolates the lock-queue component.
	MutexWaitSum   uint64
	DaemonRuns     uint64
	Evictions      uint64
	DirtyEvictions uint64
	TLBSkips       uint64 // victims skipped for TLB-shootdown avoidance
	FillSkips      uint64 // victims skipped because their fill is in flight
	DirectReclaims uint64
	// SelectiveBypasses counts walks that declined to cache a page under
	// the selective-caching policy.
	SelectiveBypasses uint64
	// ForcedShootdowns counts TLB shootdowns issued when reclaim would
	// otherwise starve (tiny caches only; zero in the paper's regime).
	ForcedShootdowns uint64
}

// AvgTagMgmtLatency returns the mean tag-management latency in cycles.
func (s *FrontendStats) AvgTagMgmtLatency() float64 {
	if s.TagMisses == 0 {
		return 0
	}
	return float64(s.TagMgmtLatencySum) / float64(s.TagMisses)
}

// mutexSim models the cache_frame_management_mutex: a FIFO critical
// section in simulated time.
type mutexSim struct {
	busy    bool
	waiters []func()
}

// lock runs fn when the mutex is acquired; fn receives unlock.
func (m *mutexSim) lock(fn func(unlock func())) {
	if m.busy {
		m.waiters = append(m.waiters, func() { fn(m.unlock) })
		return
	}
	m.busy = true
	fn(m.unlock)
}

func (m *mutexSim) unlock() {
	if len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		next()
		return
	}
	m.busy = false
}

// Frontend implements the NOMAD OS routines (and, with Blocking set, the
// TDC variant). It satisfies tlb.Walker and tlb.Directory.
type Frontend struct {
	cfg     FrontendConfig
	eng     *sim.Engine
	mm      *osmem.Manager
	backend FillBackend
	tracker transferTracker // backend's in-flight-fill view, if any
	threads []Thread
	flusher Flusher

	shootdowner Shootdowner

	mu            mutexSim
	daemonRunning bool
	stats         FrontendStats
	// tagLat observes each tag miss handler's arrival-to-resume latency
	// (nil until RegisterMetrics); trace records begin/end events.
	tagLat *metrics.Histogram
	trace  *metrics.Trace

	// walks is the freelist of pooled in-flight page-table walks.
	walks []*fwalkOp
}

// fwalkOp is one pooled in-flight walk, carried across the walk-latency
// delay by its prebuilt fn callback.
type fwalkOp struct {
	coreID int
	vaddr  uint64
	done   func(tlb.Entry)
	fn     func()
}

func (f *Frontend) getWalk() *fwalkOp {
	if n := len(f.walks); n > 0 {
		op := f.walks[n-1]
		f.walks = f.walks[:n-1]
		return op
	}
	op := &fwalkOp{}
	op.fn = func() { f.runWalk(op) }
	return op
}

// runWalk fires after the walk latency: recycle the op, then resolve the
// PTE (release-before-callback: handlers below may start another walk).
func (f *Frontend) runWalk(op *fwalkOp) {
	coreID, vaddr, done := op.coreID, op.vaddr, op.done
	op.done = nil
	f.walks = append(f.walks, op)
	vpn := mem.PageNum(vaddr)
	pte := f.mm.PTEOf(coreID, vpn)
	switch {
	case pte.NonCacheable:
		f.stats.Uncacheable++
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	case pte.Cached:
		f.stats.TagHits++
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpaceCache})
	case !f.shouldCache(pte):
		// Selective caching: not hot enough yet; run from off-package
		// memory (equivalent to the (hit, miss) case of §III-E).
		f.stats.SelectiveBypasses++
		done(tlb.Entry{VPN: vpn, Frame: pte.Frame, Space: mem.SpacePhysical})
	case f.cfg.Blocking:
		f.blockingMiss(coreID, vpn, pte, done)
	default:
		f.tagMiss(coreID, vpn, mem.PageOffset(vaddr), pte, done)
	}
}

// SetShootdowner wires the TLB shootdown fallback (optional; without it,
// reclaim starvation panics).
func (f *Frontend) SetShootdowner(s Shootdowner) { f.shootdowner = s }

// NewFrontend builds the OS front-end. For non-blocking (NOMAD) mode pass a
// backend; for blocking (TDC) mode pass the fill (PFN to CFN) and writeback
// (CFN to PFN) page-copy functions, which become the fill engine.
func NewFrontend(eng *sim.Engine, cfg FrontendConfig, mm *osmem.Manager, threads []Thread, flusher Flusher, backend FillBackend,
	copier, wbCopier func(src, dst uint64, done mem.Done)) *Frontend {
	cfg = cfg.normalized()
	if cfg.Blocking {
		if copier == nil || wbCopier == nil {
			panic("core: blocking front-end requires copier functions")
		}
		backend = blockingCopier{fill: copier, writeback: wbCopier}
	}
	if backend == nil {
		panic("core: non-blocking front-end requires a backend")
	}
	f := &Frontend{cfg: cfg, eng: eng, mm: mm, backend: backend, threads: threads, flusher: flusher}
	f.tracker, _ = backend.(transferTracker)
	return f
}

// Stats returns the front-end counters.
func (f *Frontend) Stats() *FrontendStats { return &f.stats }

// RegisterMetrics exposes the OS-routine counters in reg under prefix
// (conventionally "os") plus a tag-management latency histogram, and
// attaches the trace for tag-miss begin/end events.
func (f *Frontend) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s := &f.stats
	reg.Counter(prefix+".tag_hits", &s.TagHits)
	reg.Counter(prefix+".tag_misses", &s.TagMisses)
	reg.Counter(prefix+".uncacheable", &s.Uncacheable)
	reg.Counter(prefix+".tag_mgmt_latency_sum", &s.TagMgmtLatencySum)
	reg.GaugeFunc(prefix+".tag_mgmt_latency_max", func() float64 { return float64(s.TagMgmtLatencyMax) })
	reg.Counter(prefix+".mutex_wait_sum", &s.MutexWaitSum)
	reg.Counter(prefix+".daemon_runs", &s.DaemonRuns)
	reg.Counter(prefix+".evictions", &s.Evictions)
	reg.Counter(prefix+".dirty_evictions", &s.DirtyEvictions)
	reg.Counter(prefix+".tlb_skips", &s.TLBSkips)
	reg.Counter(prefix+".fill_skips", &s.FillSkips)
	reg.Counter(prefix+".direct_reclaims", &s.DirectReclaims)
	reg.Counter(prefix+".selective_bypasses", &s.SelectiveBypasses)
	reg.Counter(prefix+".forced_shootdowns", &s.ForcedShootdowns)
	reg.GaugeFunc(prefix+".free_frames", func() float64 { return float64(f.mm.FreeFrames()) })
	f.tagLat = reg.Histogram(prefix + ".tag_mgmt_latency")
	f.trace = reg.Trace()
}

// Manager exposes the underlying OS memory state.
func (f *Frontend) Manager() *osmem.Manager { return f.mm }

// Walk implements tlb.Walker: the page-table walk plus, for cacheable
// uncached pages, DC tag miss handling.
func (f *Frontend) Walk(coreID int, vaddr uint64, done func(tlb.Entry)) {
	op := f.getWalk()
	op.coreID = coreID
	op.vaddr = vaddr
	op.done = done
	f.eng.Schedule(f.cfg.WalkLatency, op.fn)
}

// shouldCache applies the selective-caching policy to an uncached,
// cacheable page.
func (f *Frontend) shouldCache(pte *osmem.PTE) bool {
	if f.cfg.CacheTouchThreshold <= 1 {
		return true
	}
	return uint64(f.mm.PPDOf(pte.Frame).CountWalk()) >= f.cfg.CacheTouchThreshold
}

// tagMiss is Algorithm 1: allocate a frame, offload the fill, update the
// PTE, resume the thread — all inside the cache-frame mutex, with the
// thread suspended for the handler's duration.
func (f *Frontend) tagMiss(coreID int, vpn, offset uint64, pte *osmem.PTE, done func(tlb.Entry)) {
	f.stats.TagMisses++
	arrival := f.eng.Now()
	f.trace.Emit(arrival, metrics.EvTagMissBegin, vpn, uint64(coreID))
	thread := f.threads[coreID]
	thread.Block()
	f.mu.lock(func(unlock func()) {
		start := f.eng.Now()
		f.stats.MutexWaitSum += start - arrival
		if f.mm.FreeFrames() == 0 {
			f.directReclaim()
		}
		pfn := pte.Frame
		cfn := f.mm.AllocateFrame(pfn)
		// Offload the cache fill before the tag update (Algorithm 1
		// line 6), passing the faulting offset so the back-end
		// prioritizes the demanded sub-block (critical-data-first).
		// Interface acceptance is part of the critical section, so
		// PCSHR exhaustion lengthens tag management.
		f.backend.Send(Command{Type: CmdFill, PFN: pfn, CFN: cfn, Offset: offset}, func() {
			f.mm.SetCached(pfn, cfn)
			f.maybeEvict()
			end := start + f.cfg.TagMgmtLatency
			if now := f.eng.Now(); now > end {
				end = now
			}
			f.eng.At(end, func() {
				lat := end - arrival
				f.stats.TagMgmtLatencySum += lat
				if lat > f.stats.TagMgmtLatencyMax {
					f.stats.TagMgmtLatencyMax = lat
				}
				f.tagLat.Observe(lat)
				f.trace.Emit(end, metrics.EvTagMissEnd, vpn, lat)
				thread.Unblock()
				unlock()
				done(tlb.Entry{VPN: vpn, Frame: cfn, Space: mem.SpaceCache})
			})
		})
	})
}

// blockingMiss is the TDC path: the thread stays suspended until the page
// copy completes; allocation locks only the PTE (no global mutex, no
// tag-management penalty).
func (f *Frontend) blockingMiss(coreID int, vpn uint64, pte *osmem.PTE, done func(tlb.Entry)) {
	f.stats.TagMisses++
	thread := f.threads[coreID]
	thread.Block()
	if f.mm.FreeFrames() == 0 {
		f.directReclaim()
	}
	pfn := pte.Frame
	cfn := f.mm.AllocateFrame(pfn)
	f.mm.SetCached(pfn, cfn)
	f.maybeEvict()
	f.backend.Send(Command{Type: CmdFill, PFN: pfn, CFN: cfn}, func() {
		thread.Unblock()
		done(tlb.Entry{VPN: vpn, Frame: cfn, Space: mem.SpaceCache})
	})
}

// maybeEvict sets the eviction flag when free frames run low and schedules
// the background daemon.
func (f *Frontend) maybeEvict() {
	if f.daemonRunning || f.mm.FreeFrames() >= f.cfg.EvictionLowWater {
		return
	}
	f.daemonRunning = true
	f.eng.Schedule(1, f.runDaemon)
}

// candidates takes up to n victims from the FIFO tail, counting the
// TLB-resident frames shootdown avoidance skips.
func (f *Frontend) candidates(n int) []uint64 {
	victims, skips := f.mm.EvictCandidates(n)
	f.stats.TLBSkips += uint64(skips)
	return victims
}

// release is Algorithm 2's per-victim work, shared by every eviction path:
// flush the frame's SRAM-cached lines, restore its PTEs and free it, and
// hand each dirty victim's writeback command to wb. Frames whose fill is
// still in flight are skipped exactly like TLB-resident frames: the tail
// has already passed them, so the next revolution reconsiders them once
// the transfer drains. Without this, a tiny cache under churn can release a
// mid-fill frame, re-allocate the same CFN, and issue a second concurrent
// fill that collides in the back-end's byCFN CAM. Only a fill engine that
// tracks its transfers can report them; the blocking copier does not.
func (f *Frontend) release(victims []uint64, wb func(Command)) {
	for _, cfn := range victims {
		if f.tracker != nil && f.tracker.InTransfer(cfn) {
			f.stats.FillSkips++
			continue
		}
		f.stats.Evictions++
		if f.flusher != nil {
			f.flusher.FlushFrame(cfn)
		}
		if pfn, dirty := f.mm.ReleaseFrame(cfn); dirty {
			f.stats.DirtyEvictions++
			wb(Command{Type: CmdWriteback, PFN: pfn, CFN: cfn})
		}
	}
}

// writeback offloads one writeback without waiting for its acceptance.
func (f *Frontend) writeback(cmd Command) { f.backend.Send(cmd, nil) }

// runDaemon is Algorithm 2. In NOMAD mode it holds the cache-frame mutex
// for its critical section (competing with tag miss handlers); in TDC mode
// reclamation is immediate.
func (f *Frontend) runDaemon() {
	f.stats.DaemonRuns++
	if f.cfg.Blocking {
		f.release(f.candidates(f.cfg.EvictionBatch), f.writeback)
		f.daemonFinished()
		return
	}
	f.mu.lock(func(unlock func()) {
		// Functional phase under the mutex; the critical section is
		// charged as base + per-frame work.
		victims := f.candidates(f.cfg.EvictionBatch)
		wbs := make([]Command, 0, len(victims))
		f.release(victims, func(cmd Command) { wbs = append(wbs, cmd) })
		hold := f.cfg.DaemonBase + f.cfg.DaemonPerFrame*uint64(len(victims))
		f.eng.Schedule(hold, func() {
			// Writeback commands are issued after the mutex is
			// released: offloading them to the back-end can stall
			// on PCSHR acceptance, and holding the lock across
			// those waits would starve tag miss handlers (a
			// deviation from the letter of Algorithm 2, documented
			// in DESIGN.md).
			unlock()
			f.sendWritebacks(wbs, 0)
		})
	})
}

func (f *Frontend) daemonFinished() {
	f.daemonRunning = false
	if f.mm.FreeFrames() < f.cfg.EvictionLowWater {
		f.daemonRunning = true
		f.eng.Schedule(1, f.runDaemon)
	}
}

// sendWritebacks chains writeback commands through interface acceptance,
// pacing on PCSHR availability.
func (f *Frontend) sendWritebacks(wbs []Command, i int) {
	if i >= len(wbs) {
		f.daemonFinished()
		return
	}
	f.backend.Send(wbs[i], func() { f.sendWritebacks(wbs, i+1) })
}

// directReclaim synchronously frees a batch when allocation would otherwise
// starve (direct reclaim in a real kernel). It bypasses timing: the cost is
// absorbed into the surrounding handler latency, and it is rare by
// construction (the low-water mark exceeds the maximum number of concurrent
// handlers).
func (f *Frontend) directReclaim() {
	f.stats.DirectReclaims++
	attempts := 0
	for f.mm.FreeFrames() == 0 {
		if attempts++; attempts > 2*int(f.mm.CacheFrames())/f.cfg.EvictionBatch+2 {
			// Every frame is TLB-resident (possible only when TLB
			// reach rivals DC capacity): fall back to real TLB
			// shootdowns, like a conventional kernel.
			f.forcedReclaim()
			continue
		}
		f.release(f.candidates(f.cfg.EvictionBatch), f.writeback)
	}
}

// forcedReclaim shoots down the TLB entries pinning frames at the FIFO tail
// and releases those frames. Only reachable when shootdown avoidance has
// starved reclaim completely.
func (f *Frontend) forcedReclaim() {
	if f.shootdowner == nil {
		panic("core: direct reclaim found no evictable frames and no shootdown path is wired")
	}
	// Phase 1: shoot down every TLB-resident frame in the next batch
	// window so the normal victim scan can proceed.
	f.stats.ForcedShootdowns += f.mm.ShootdownTail(f.cfg.EvictionBatch, f.shootdowner.Shootdown)
	// Phase 2: regular eviction over the now-unpinned window.
	victims, _ := f.mm.EvictCandidates(f.cfg.EvictionBatch)
	f.release(victims, f.writeback)
}

// TLBInserted implements tlb.Directory.
func (f *Frontend) TLBInserted(coreID int, e tlb.Entry) {
	f.mm.TLBSet(e.Frame, coreID, true)
}

// TLBEvicted implements tlb.Directory.
func (f *Frontend) TLBEvicted(coreID int, e tlb.Entry) {
	f.mm.TLBSet(e.Frame, coreID, false)
}
