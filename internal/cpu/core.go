// Package cpu models the out-of-order cores of the evaluated chip
// multiprocessor at the level the paper's results depend on: a bounded
// reorder window (instructions retire in order, at most Width per cycle), a
// bounded number of outstanding loads (memory-level parallelism), and
// OS-routine blocking — the mechanism through which the blocking TDC scheme
// loses performance and NOMAD's 400-cycle tag handler appears.
//
// The core consumes a workload.Stream and issues memory operations through a
// MemPort (translation + SRAM hierarchy, wired by internal/system). Stores
// retire through an idealized store buffer (they complete at insert but
// still traverse the hierarchy and consume bandwidth); loads hold their ROB
// position until data returns.
//
// Representation: instructions are counted, not materialized. The ROB is the
// window [retireSeq, insertSeq); only loads occupy slots in a fixed ring
// (program order), so the per-cycle work and allocation are independent of
// instruction count.
//
// Stall accounting distinguishes:
//   - OSBlocked: cycles the thread is suspended by an OS routine (the
//     paper's "application stall cycles", Fig. 11);
//   - MemStall: cycles nothing retired because the ROB head was an
//     incomplete load;
//   - FrontStall: cycles nothing retired or inserted for other reasons.
package cpu

import (
	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/workload"
)

// MemPort is the core's path into the memory system. Load's done callback
// fires when data is available; Store is fire-and-forget (store buffer).
// p is the load's latency-provenance probe: the memory system updates
// p.Cause as the access moves (so head-of-ROB stall cycles are charged to
// the component currently holding the load) and emits spans tagged p.SpanID
// when the load was sampled. The pointer stays valid until done fires.
type MemPort interface {
	Load(core int, vaddr uint64, p *mem.Probe, done func())
	Store(core int, vaddr uint64)
}

// Config sizes one core.
//
//nomad:ephemeral run configuration, fixed before the first cycle and hashed into the manifest
type Config struct {
	Width    int // issue/retire width
	ROBSize  int
	MaxLoads int // outstanding load cap (LSQ/MSHR reach)
}

// DefaultConfig matches the evaluation setup: 4-wide, 224-entry ROB, and 6
// outstanding loads — the effective MLP cap documented as deviation #4 in
// DESIGN.md (synthetic dependency-free streams otherwise exhibit
// unrealistically deep memory-level parallelism).
func DefaultConfig() Config {
	return Config{Width: 4, ROBSize: 224, MaxLoads: 6}
}

// Stats counts one core's progress and stalls.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	MemOps       uint64
	Loads        uint64
	Stores       uint64
	// OSBlockedCycles: thread suspended by an OS routine.
	OSBlockedCycles uint64
	// MemStallCycles: no retirement; ROB head was a pending load.
	MemStallCycles uint64
	// FrontStallCycles: no retirement and no insertion, other causes.
	FrontStallCycles uint64
	// OSBlockEvents counts suspensions (≈ DC tag misses for OS schemes).
	OSBlockEvents uint64
	// MemStallByCause splits MemStallCycles by the head load's current
	// stall cause (CPI stack, Fig. 11). The entries sum to MemStallCycles
	// by construction: each stalled cycle charges exactly one cause.
	MemStallByCause [mem.NumStallCauses]uint64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// StallRatio returns the fraction of cycles the thread was OS-suspended.
func (s *Stats) StallRatio() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OSBlockedCycles) / float64(s.Cycles)
}

//nomad:ephemeral load-queue slot working state; divergence surfaces in the registered stall-cause counters
type loadSlot struct {
	pos   uint64 // absolute instruction index
	done  bool
	start uint64    // cycle the load issued (span envelope start)
	probe mem.Probe // provenance tag; address is stable (fixed ring)
	// doneFn is the slot's completion callback, built once in New (the
	// ring is fixed, so the captured slot pointer stays valid). Reusing it
	// keeps load issue allocation-free.
	doneFn func()
}

// Core is one simulated CPU. Register it as a sim.Ticker.
type Core struct {
	ID   int
	cfg  Config
	port MemPort
	wl   *workload.Stream

	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	insertSeq uint64 // next instruction index to insert
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	retireSeq uint64 // next instruction index to retire

	loads []loadSlot // ring, program order; cap = ROBSize
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	loadHead int
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	loadCount int
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	inFlight int // issued loads whose data has not returned

	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	gapLeft uint64
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	memOp *workload.Op // fetched op whose memory access is not yet inserted
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	opBuf workload.Op

	// blockCount tracks overlapping indefinite suspensions (a core can
	// have several tag misses in flight); blockedUntil handles
	// fixed-duration suspensions. The thread runs only when both clear.
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	blockCount int
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	blockedUntil uint64

	// Span sampling: 1-in-sampleEvery loads (deterministic, by load
	// sequence number) get a nonzero SpanID and emit latency spans.
	spans *metrics.SpanRing
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	sampleEvery uint64
	//nomad:ephemeral ROB and load-queue working state; divergence surfaces in the registered instruction and stall counters
	nowCycle uint64 // current cycle, visible to load-done closures

	stats Stats
}

// New builds a core. The caller registers it with the engine.
func New(id int, cfg Config, port MemPort, wl *workload.Stream) *Core {
	if cfg.Width <= 0 || cfg.ROBSize <= 0 || cfg.MaxLoads <= 0 {
		panic("cpu: Width, ROBSize, and MaxLoads must be positive")
	}
	c := &Core{
		ID:    id,
		cfg:   cfg,
		port:  port,
		wl:    wl,
		loads: make([]loadSlot, cfg.ROBSize),
	}
	for i := range c.loads {
		slot := &c.loads[i]
		slot.doneFn = func() {
			slot.done = true
			c.inFlight--
			if slot.probe.SpanID != 0 {
				c.spans.Emit(metrics.Span{
					ID:    slot.probe.SpanID,
					Kind:  metrics.SpanLoad,
					Core:  int32(c.ID),
					Start: slot.start,
					End:   c.nowCycle,
				})
			}
		}
	}
	return c
}

// Stats returns the core's counters.
func (c *Core) Stats() *Stats { return &c.stats }

// SetSpanTracing samples 1 in every loads into the ring: the k-th load is
// sampled iff k ≡ 1 (mod every), which is deterministic across same-seed
// runs (no RNG). every <= 0 or a nil ring disables sampling.
func (c *Core) SetSpanTracing(spans *metrics.SpanRing, every uint64) {
	if spans == nil || every == 0 {
		c.spans, c.sampleEvery = nil, 0
		return
	}
	c.spans, c.sampleEvery = spans, every
}

// Block suspends the thread until a matching Unblock (OS routine of unknown
// duration, e.g. a TDC page copy). Calls nest.
func (c *Core) Block() {
	if c.blockCount == 0 {
		c.stats.OSBlockEvents++
	}
	c.blockCount++
}

// BlockFor suspends the thread for a fixed number of cycles from now (e.g.
// NOMAD's tag-management latency). now is the current cycle.
func (c *Core) BlockFor(now, cycles uint64) {
	until := now + cycles
	if !c.Blocked() {
		c.stats.OSBlockEvents++
	}
	if until > c.blockedUntil {
		c.blockedUntil = until
	}
}

// Unblock undoes one Block.
func (c *Core) Unblock() {
	if c.blockCount == 0 {
		panic("cpu: Unblock without Block")
	}
	c.blockCount--
}

// Blocked reports whether the thread is currently OS-suspended.
func (c *Core) Blocked() bool { return c.blockCount > 0 }

// OutstandingLoads reports in-flight loads (tests).
func (c *Core) OutstandingLoads() int { return c.inFlight }

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	c.stats.Cycles++
	c.nowCycle = now

	if c.blockCount > 0 || now < c.blockedUntil {
		c.stats.OSBlockedCycles++
		return
	}

	// Retire: advance retireSeq up to Width instructions, stopping at the
	// first incomplete load.
	limit := c.retireSeq + uint64(c.cfg.Width)
	if limit > c.insertSeq {
		limit = c.insertSeq
	}
	headBlocked := false
	for c.loadCount > 0 {
		h := &c.loads[c.loadHead]
		if h.pos >= limit {
			break
		}
		if !h.done {
			headBlocked = h.pos == c.retireSeq
			limit = h.pos
			break
		}
		c.loadHead++
		if c.loadHead == len(c.loads) {
			c.loadHead = 0
		}
		c.loadCount--
	}
	retired := limit - c.retireSeq
	c.retireSeq = limit
	c.stats.Instructions += retired

	// Insert up to Width new instructions.
	budget := uint64(c.cfg.Width)
	inserted := uint64(0)
	for budget > 0 && c.insertSeq-c.retireSeq < uint64(c.cfg.ROBSize) {
		if c.gapLeft > 0 {
			// Bulk-insert non-memory instructions (they complete
			// immediately).
			n := c.gapLeft
			if n > budget {
				n = budget
			}
			if space := uint64(c.cfg.ROBSize) - (c.insertSeq - c.retireSeq); n > space {
				n = space
			}
			c.gapLeft -= n
			c.insertSeq += n
			budget -= n
			inserted += n
			continue
		}
		if c.memOp != nil {
			op := c.memOp
			if op.Write {
				c.stats.MemOps++
				c.stats.Stores++
				c.insertSeq++
				budget--
				inserted++
				c.port.Store(c.ID, op.Addr)
				c.memOp = nil
				continue
			}
			if c.inFlight >= c.cfg.MaxLoads {
				break // load cap: wait for an outstanding load
			}
			c.stats.MemOps++
			c.stats.Loads++
			idx := c.loadHead + c.loadCount
			if idx >= len(c.loads) {
				idx -= len(c.loads)
			}
			slot := &c.loads[idx]
			slot.pos = c.insertSeq
			slot.done = false
			slot.start = now
			slot.probe = mem.Probe{Core: int32(c.ID), Cause: mem.StallSRAM}
			if c.sampleEvery > 0 && (c.stats.Loads-1)%c.sampleEvery == 0 {
				// SpanID packs (core, load sequence) so IDs are unique
				// across cores and stable across same-seed runs.
				slot.probe.SpanID = uint64(c.ID+1)<<40 | c.stats.Loads
			}
			c.loadCount++
			c.inFlight++
			c.insertSeq++
			budget--
			inserted++
			c.port.Load(c.ID, op.Addr, &slot.probe, slot.doneFn)
			c.memOp = nil
			continue
		}
		// Fetch the next operation.
		c.opBuf = c.wl.Next()
		c.gapLeft = c.opBuf.Gap
		c.memOp = &c.opBuf
	}

	if retired == 0 {
		switch {
		case headBlocked:
			c.stats.MemStallCycles++
			// Charge the cause the head load is waiting on right now —
			// the memory system keeps probe.Cause current as the access
			// moves, so the CPI stack attributes each stalled cycle to
			// the component actually holding the data.
			c.stats.MemStallByCause[c.loads[c.loadHead].probe.Cause]++
		case inserted == 0:
			c.stats.FrontStallCycles++
		}
	}
}

// noWork mirrors sim.NoWork ("only an event can wake me"); the cpu package
// satisfies sim.FastForwarder structurally, without importing sim.
const noWork = ^uint64(0)

// NextWork implements the fast-forward half of the sim.FastForwarder
// protocol: it reports the earliest cycle after now at which Tick could do
// anything beyond charging one stall cycle, assuming no event (load
// completion, OS unblock) runs in between. The engine separately bounds
// jumps by the event heap, so "the head load's data returns" and "an OS
// routine unblocks the thread" never need to be predicted here.
func (c *Core) NextWork(now uint64) uint64 {
	if c.blockCount > 0 {
		// Indefinitely OS-suspended: only an Unblock event resumes it.
		return noWork
	}
	if c.blockedUntil > now+1 {
		// Fixed-duration suspension: pure OSBlocked cycles until then.
		return c.blockedUntil
	}
	if c.blockedUntil > now {
		return now + 1 // resumes next cycle
	}
	// Runnable. The next Tick is a pure head-of-ROB stall iff it can
	// neither retire (head is an incomplete load at retireSeq) nor insert
	// (ROB full, or a load stuck behind the outstanding-load cap with no
	// gap instructions or fetch available). Every condition below can only
	// change through an event, so a quiescent verdict holds until one runs.
	if c.insertSeq == c.retireSeq {
		return now + 1 // empty window: Tick would fetch and insert
	}
	if c.loadCount == 0 {
		return now + 1 // non-load instructions retire
	}
	if h := &c.loads[c.loadHead]; h.done || h.pos != c.retireSeq {
		return now + 1 // head retires, or instructions before it do
	}
	if c.insertSeq-c.retireSeq >= uint64(c.cfg.ROBSize) {
		return noWork // retire blocked and ROB full: nothing can move
	}
	if c.gapLeft > 0 || c.memOp == nil || c.memOp.Write || c.inFlight < c.cfg.MaxLoads {
		return now + 1 // Tick would insert or fetch
	}
	return noWork // retire blocked, insert stuck on the load cap
}

// SkipCycles bulk-accounts n skipped cycles (now+1 .. now+n). The engine
// guarantees the span is uniform — it never extends past blockedUntil, a
// scheduled event, or any cycle NextWork flagged — so the whole span
// charges the bucket the first skipped cycle would have: OSBlockedCycles
// while suspended, otherwise MemStallCycles under the head load's current
// stall cause (unchanged across the span, since only events move it).
func (c *Core) SkipCycles(now, n uint64) {
	c.stats.Cycles += n
	if c.blockCount > 0 || now+1 < c.blockedUntil {
		c.stats.OSBlockedCycles += n
		return
	}
	if check.Enabled {
		check.Assert(c.loadCount > 0 && !c.loads[c.loadHead].done &&
			c.loads[c.loadHead].pos == c.retireSeq,
			"cpu %d: skipping %d cycles at %d without a head-of-ROB stall", c.ID, n, now)
	}
	c.stats.MemStallCycles += n
	c.stats.MemStallByCause[c.loads[c.loadHead].probe.Cause] += n
}
