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
//
// A core is a sim.Sleeper: when its next Tick could only charge one
// OSBlocked or MemStall cycle it leaves the engine's active set, recording
// that bucket, and charges the cycles it slept through when it next ticks
// or is settled. Block/Unblock, a load completing and a cause change of the
// head load wake it.
package cpu

import (
	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
	"nomad/internal/workload"
)

// MemPort is the core's path into the memory system. Load's done callback
// fires when data is available; Store is fire-and-forget (store buffer).
// p is the load's latency-provenance probe: the memory system calls
// p.SetCause as the access moves (so head-of-ROB stall cycles are charged to
// the component currently holding the load) and emits spans tagged p.SpanID
// when the load was sampled. The pointer stays valid until done fires.
type MemPort interface {
	Load(core int, vaddr uint64, p *mem.Probe, done func())
	Store(core int, vaddr uint64)
}

// Config sizes one core.
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

	insertSeq uint64 // next instruction index to insert
	retireSeq uint64 // next instruction index to retire

	loads     []loadSlot // ring, program order; cap = ROBSize
	loadHead  int
	loadCount int
	inFlight  int // issued loads whose data has not returned

	gapLeft uint64
	memOp   *workload.Op // fetched op whose memory access is not yet inserted
	opBuf   workload.Op

	// blockCount tracks overlapping suspensions (a core can have several
	// tag misses in flight). The thread runs only when it is zero.
	blockCount int

	// Span sampling: 1-in-sampleEvery loads (deterministic, by load
	// sequence number) get a nonzero SpanID and emit latency spans.
	spans       *metrics.SpanRing
	sampleEvery uint64

	// Sleep state. While asleep, every cycle after sleptAt (the last
	// cycle ticked or settled) is charged to one bucket: OSBlockedCycles
	// if sleepOS, else MemStallByCause[sleepCause], the head load's cause
	// when the core fell asleep (the head probe is watched, so a cause
	// change wakes the core).
	wake       sim.Waker
	asleep     bool
	sleepOS    bool
	sleepCause mem.StallCause
	sleptAt    uint64

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
			if c.blockCount == 0 {
				// A blocked thread's next Tick charges OSBlocked
				// whatever its loads do; Unblock wakes it.
				c.wake.Wake()
			}
			if slot.probe.SpanID != 0 {
				c.spans.Emit(metrics.Span{
					ID:    slot.probe.SpanID,
					Kind:  metrics.SpanLoad,
					Core:  int32(c.ID),
					Start: slot.start,
					End:   c.wake.Now(),
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

// Block suspends the thread until a matching Unblock (an OS routine: a TDC
// page copy, or NOMAD's tag-management handler, which unblocks from a
// scheduled event). Calls nest.
func (c *Core) Block() {
	if c.blockCount == 0 {
		c.stats.OSBlockEvents++
		c.wake.Wake()
	}
	c.blockCount++
}

// Unblock undoes one Block.
func (c *Core) Unblock() {
	if c.blockCount == 0 {
		panic("cpu: Unblock without Block")
	}
	c.blockCount--
	if c.blockCount == 0 {
		c.wake.Wake()
	}
}

// Blocked reports whether the thread is currently OS-suspended.
func (c *Core) Blocked() bool { return c.blockCount > 0 }

// OutstandingLoads reports in-flight loads (tests).
func (c *Core) OutstandingLoads() int { return c.inFlight }

// SetWaker implements sim.Sleeper.
func (c *Core) SetWaker(w sim.Waker) { c.wake = w }

// Tick advances the core one cycle, first charging any cycles it slept
// through.
func (c *Core) Tick(now uint64) {
	if c.asleep {
		c.asleep = false
		c.charge(now - 1 - c.sleptAt)
		if !c.sleepOS {
			c.loads[c.loadHead].probe.Watch(nil)
		}
	}
	c.stats.Cycles++

	if c.blockCount > 0 {
		c.stats.OSBlockedCycles++
		c.trySleep(now)
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
			slot.probe = mem.Probe{Core: int32(c.ID)} // cause StallSRAM, unwatched
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
			// the memory system keeps the probe's cause current as the
			// access moves, so the CPI stack attributes each stalled
			// cycle to the component actually holding the data.
			c.stats.MemStallByCause[c.loads[c.loadHead].probe.Cause()]++
		case inserted == 0:
			c.stats.FrontStallCycles++
		}
	}
	c.trySleep(now)
}

// stalled reports whether a runnable core's next Tick could only charge one
// head-of-ROB stall cycle: the head is an incomplete load at retireSeq, and
// insertion is stuck (ROB full, or the next op is a load at the
// outstanding-load cap with no gap instructions left). Only a load
// completing changes that.
func (c *Core) stalled() bool {
	if c.loadCount == 0 {
		return false
	}
	if h := &c.loads[c.loadHead]; h.done || h.pos != c.retireSeq {
		return false
	}
	if c.insertSeq-c.retireSeq >= uint64(c.cfg.ROBSize) {
		return true
	}
	return c.gapLeft == 0 && c.memOp != nil && !c.memOp.Write && c.inFlight >= c.cfg.MaxLoads
}

// trySleep ends a Tick: when the next Tick could only charge one stall
// cycle, the core leaves the active set and records the bucket. A mem-stall
// sleep watches the head probe, since its cause picks the bucket.
func (c *Core) trySleep(now uint64) {
	os := c.blockCount > 0
	if (!os && !c.stalled()) || !c.wake.Sleep() {
		return
	}
	c.asleep, c.sleepOS, c.sleptAt = true, os, now
	if !os {
		h := &c.loads[c.loadHead].probe
		c.sleepCause = h.Cause()
		h.Watch(&c.wake)
	}
}

// charge accounts n slept cycles to the recorded bucket.
func (c *Core) charge(n uint64) {
	c.stats.Cycles += n
	if c.sleepOS {
		c.stats.OSBlockedCycles += n
		return
	}
	c.stats.MemStallCycles += n
	c.stats.MemStallByCause[c.sleepCause] += n
}

// Settle implements sim.Sleeper: it charges the cycles slept through now.
func (c *Core) Settle(now uint64) {
	if c.asleep {
		c.charge(now - c.sleptAt)
		c.sleptAt = now
	}
}

// AuditSleep is the engine's invariants-build check on a sleeping core: its
// next Tick must still charge exactly the recorded bucket.
func (c *Core) AuditSleep(now uint64) {
	check.Assert(c.asleep, "cpu %d: out of the active set at %d without sleeping", c.ID, now)
	if c.sleepOS {
		check.Assert(c.blockCount > 0, "cpu %d: asleep as OS-blocked at %d but runnable", c.ID, now)
		return
	}
	check.Assert(c.blockCount == 0 && c.stalled(),
		"cpu %d: asleep on a head-of-ROB stall at %d but blocked or able to move", c.ID, now)
	cause := c.loads[c.loadHead].probe.Cause()
	check.Assert(cause == c.sleepCause,
		"cpu %d: asleep charging %v at %d but the head load waits on %v", c.ID, c.sleepCause, now, cause)
}
