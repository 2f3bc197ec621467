package sim

import "fmt"

// NoEvent is the NextDue return value of a scheduler with no pending events.
const NoEvent = ^uint64(0)

// Scheduler is the event-queue half of the engine: it owns every scheduled
// closure and the clock-ordered dispatch of those closures. The Engine owns
// tickers, hooks, and fast-forward; it talks to the queue exclusively
// through this interface, so queue implementations are swappable
// (WithScheduler).
//
// The determinism contract a Scheduler must satisfy:
//
//   - Events for the same cycle dispatch in FIFO order of scheduling,
//     including events scheduled from inside a running handler for the
//     current cycle (they run after everything already queued there).
//   - Advance(now) dispatches every event due at or before now before
//     returning, in (cycle, FIFO) order.
//   - NextDue never under-reports: there is no pending event earlier than
//     its return value. Fast-forward jumps are bounded by it.
//
// Two implementations exist: WheelScheduler (hierarchical timing wheel,
// the default — O(1) schedule and dispatch, allocation-free steady state)
// and HeapScheduler (binary min-heap, the original engine — kept as the
// differential-testing oracle the randomized equivalence tests drive both
// against). See DESIGN.md, "Event engine v2".
type Scheduler interface {
	// Schedule enqueues fn delay cycles after the scheduler's current
	// cycle. A delay of 0 runs fn later within the current cycle.
	Schedule(delay uint64, fn func())
	// ScheduleAt enqueues fn at the given absolute cycle, which must not
	// precede the scheduler's current cycle.
	ScheduleAt(cycle uint64, fn func())
	// NextDue returns the earliest cycle holding a pending event, or
	// NoEvent when the queue is empty.
	NextDue() uint64
	// Advance moves the scheduler's clock to now (monotonically) and
	// dispatches every event due at or before now. It returns the number
	// of events dispatched.
	Advance(now uint64) uint64
	// Pending reports how many events are queued.
	Pending() int
}

// event is one scheduled closure, keyed by (cycle, seq): seq is the global
// scheduling sequence number that breaks same-cycle ties FIFO.
type event struct {
	cycle uint64
	seq   uint64
	fn    func()
}

// eventHeap is a hand-rolled binary min-heap ordered by (cycle, seq). It is
// typed (no interface boxing) and backs both the HeapScheduler and the
// wheel's far-future overflow calendar.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// HeapScheduler is the original event queue: a binary min-heap keyed by
// (cycle, seq). O(log n) per operation, but with a trivially auditable
// ordering proof — which is why it survives as the oracle the randomized
// differential tests compare the wheel against.
type HeapScheduler struct {
	now     uint64
	seq     uint64
	pending eventHeap
}

// NewHeapScheduler returns an empty heap scheduler at cycle 0.
func NewHeapScheduler() *HeapScheduler { return &HeapScheduler{} }

// Schedule implements Scheduler.
func (h *HeapScheduler) Schedule(delay uint64, fn func()) { h.ScheduleAt(h.now+delay, fn) }

// ScheduleAt implements Scheduler.
func (h *HeapScheduler) ScheduleAt(cycle uint64, fn func()) {
	if cycle < h.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now is %d", cycle, h.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil event")
	}
	h.seq++
	h.pending.push(event{cycle: cycle, seq: h.seq, fn: fn})
}

// NextDue implements Scheduler.
func (h *HeapScheduler) NextDue() uint64 {
	if len(h.pending) == 0 {
		return NoEvent
	}
	return h.pending[0].cycle
}

// Advance implements Scheduler.
func (h *HeapScheduler) Advance(now uint64) uint64 {
	if now > h.now {
		h.now = now
	}
	var ran uint64
	for len(h.pending) > 0 && h.pending[0].cycle <= h.now {
		ev := h.pending.pop()
		ran++
		ev.fn()
	}
	return ran
}

// Pending implements Scheduler.
func (h *HeapScheduler) Pending() int { return len(h.pending) }
