package sim

import (
	"fmt"
	"math/bits"
)

// Wheel geometry. The near wheel covers wheelSize consecutive cycles in
// power-of-two buckets; anything further out sits in the overflow calendar
// (a (cycle, seq) min-heap) until the window slides over it. 2048 cycles
// comfortably covers every latency the models schedule on the hot path —
// SRAM lookups (4..38), DRAM bursts (~60..200), the 400-cycle tag handler,
// buffer reads — so overflow traffic is limited to rare far-future work
// (long OS suspensions, pathological configs).
const (
	wheelBits  = 11
	wheelSize  = 1 << wheelBits // cycles covered by the near wheel
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy-bitmap words
)

// WheelScheduler is a hierarchical timing wheel: the default engine queue.
//
//   - Schedule/ScheduleAt is O(1): events within the wheel window append to
//     the bucket of their cycle; farther events go to the overflow heap.
//   - Dispatch is batched per cycle: Advance drains one bucket at a time
//     (FIFO by append order), instead of one heap pop per event.
//   - NextDue is an occupancy-bitmap scan (one uint64 word per 64 buckets),
//     which is what the engine's fast-forward jump logic polls instead of a
//     heap-head peek.
//   - The steady-state busy path allocates nothing: buckets and the
//     overflow slice retain their capacity across laps, and events are
//     stored by value (the closure is the caller's only allocation).
//
// FIFO-within-cycle, the determinism contract's backbone, holds by
// construction: direct inserts append in scheduling order, and overflow
// events migrate into their bucket in (cycle, seq) order exactly when the
// window first reaches them — before any direct insert for that cycle is
// possible — so bucket order is globally FIFO.
type WheelScheduler struct {
	now uint64
	seq uint64

	buckets    [wheelSize][]func()
	occ        [wheelWords]uint64
	wheelCount int

	overflow eventHeap

	// due memoizes NextDue (valid when dueValid): the engine polls NextDue
	// every cycle, and the earliest pending cycle only changes on an
	// earlier insert (O(1) min-update) or a bucket drain (invalidate), so
	// the bitmap scan runs once per drained bucket instead of per cycle.
	due      uint64
	dueValid bool
}

// NewWheelScheduler returns an empty timing-wheel scheduler at cycle 0.
func NewWheelScheduler() *WheelScheduler { return &WheelScheduler{} }

// Schedule implements Scheduler.
func (w *WheelScheduler) Schedule(delay uint64, fn func()) { w.ScheduleAt(w.now+delay, fn) }

// ScheduleAt implements Scheduler.
func (w *WheelScheduler) ScheduleAt(cycle uint64, fn func()) {
	if cycle < w.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now is %d", cycle, w.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil event")
	}
	w.seq++
	if w.dueValid && cycle < w.due {
		w.due = cycle
	}
	if cycle-w.now < wheelSize {
		idx := cycle & wheelMask
		w.buckets[idx] = append(w.buckets[idx], fn)
		w.occ[idx>>6] |= 1 << (idx & 63)
		w.wheelCount++
		return
	}
	w.overflow.push(event{cycle: cycle, seq: w.seq, fn: fn})
}

// nextWheel returns the earliest occupied bucket's cycle, or NoEvent. The
// scan starts at the current cycle's bit and walks the bitmap circularly;
// on the busy path the hit is in the first word.
func (w *WheelScheduler) nextWheel() uint64 {
	if w.wheelCount == 0 {
		return NoEvent
	}
	p := w.now & wheelMask
	word := p >> 6
	if x := w.occ[word] >> (p & 63); x != 0 {
		return w.now + uint64(bits.TrailingZeros64(x))
	}
	for i := uint64(1); i <= wheelWords; i++ {
		wi := (word + i) & (wheelWords - 1)
		if x := w.occ[wi]; x != 0 {
			idx := wi<<6 + uint64(bits.TrailingZeros64(x))
			return w.now + ((idx - p) & wheelMask)
		}
	}
	// wheelCount > 0 guarantees an occupied bucket; the circular scan
	// above must have found it.
	panic("sim: wheel occupancy bitmap inconsistent with event count")
}

// NextDue implements Scheduler. Overflow events are always at least a full
// window away, so the wheel wins whenever it holds anything. The result is
// memoized; sliding the window does not invalidate it (the pending set and
// its cycles are unchanged), only drains and earlier inserts do.
func (w *WheelScheduler) NextDue() uint64 {
	if w.dueValid {
		return w.due
	}
	due := w.nextWheel()
	if due == NoEvent && len(w.overflow) > 0 {
		due = w.overflow[0].cycle
	}
	w.due = due
	w.dueValid = true
	return due
}

// slideTo moves the window start to n and migrates every overflow event the
// window now covers into its bucket. Heap pops deliver migrants in
// (cycle, seq) order, and migration for a cycle completes before any direct
// insert for it can occur (direct inserts require cycle-now < wheelSize),
// so bucket order stays FIFO.
func (w *WheelScheduler) slideTo(n uint64) {
	w.now = n
	for len(w.overflow) > 0 && w.overflow[0].cycle-n < wheelSize {
		ev := w.overflow.pop()
		idx := ev.cycle & wheelMask
		w.buckets[idx] = append(w.buckets[idx], ev.fn)
		w.occ[idx>>6] |= 1 << (idx & 63)
		w.wheelCount++
	}
}

// Advance implements Scheduler: batched per-cycle dispatch. Handlers may
// schedule new events for the cycle being drained (the loop re-reads the
// bucket, so appends made mid-drain are picked up in FIFO position).
func (w *WheelScheduler) Advance(now uint64) uint64 {
	var ran uint64
	for {
		due := w.NextDue()
		if due > now { // NoEvent compares greater than any cycle
			break
		}
		if due > w.now {
			w.slideTo(due)
		}
		idx := due & wheelMask
		b := w.buckets[idx]
		for i := 0; i < len(b); i++ {
			fn := b[i]
			b[i] = nil // release the closure for GC
			w.wheelCount--
			ran++
			fn()
			b = w.buckets[idx] // handler appends may have grown/moved it
		}
		w.buckets[idx] = b[:0]
		w.occ[idx>>6] &^= 1 << (idx & 63)
		w.dueValid = false // the drained bucket may have been the cached due
	}
	if now > w.now {
		w.slideTo(now)
	}
	return ran
}

// Pending implements Scheduler.
func (w *WheelScheduler) Pending() int { return w.wheelCount + len(w.overflow) }
