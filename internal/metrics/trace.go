package metrics

// EventKind identifies a typed trace event.
type EventKind uint8

// The event vocabulary covers the paper's mechanisms end to end: tag-miss
// handling in the OS front-end, PCSHR lifecycle in the back-end, DC fills,
// and DRAM row conflicts.
const (
	// EvTagMissBegin: a core entered the DC tag miss handler.
	// A = virtual page number, B = core ID.
	EvTagMissBegin EventKind = iota
	// EvTagMissEnd: the handler resumed the thread. A = VPN, B = latency
	// in cycles.
	EvTagMissEnd
	// EvPCSHRAlloc: a back-end command occupied a PCSHR. A = CFN (fills)
	// or PFN (writebacks), B = 0 for fill / 1 for writeback.
	EvPCSHRAlloc
	// EvPCSHRRetire: a PCSHR completed and was recycled. A/B as above.
	EvPCSHRRetire
	// EvPCSHROverflow: a data miss found every sub-entry busy.
	// A = CFN or PFN, B = sub-block index.
	EvPCSHROverflow
	// EvFillStart: a fill acquired a page copy buffer and began moving
	// data. A = CFN, B = PFN.
	EvFillStart
	// EvFillDone: a fill's 64 sub-block writes all completed. A = CFN,
	// B = PFN.
	EvFillDone
	// EvRowConflict: a DRAM burst closed an open row. A = byte address,
	// B = bank index.
	EvRowConflict

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"tag_miss_begin", "tag_miss_end",
	"pcshr_alloc", "pcshr_retire", "pcshr_overflow",
	"fill_start", "fill_done",
	"row_conflict",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "invalid"
}

// Event is one trace record. A and B are kind-specific operands (see the
// EventKind documentation).
type Event struct {
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	A     uint64    `json:"a"`
	B     uint64    `json:"b"`
}

// Trace is a fixed-capacity ring buffer of events. Emit overwrites the
// oldest record once full, so the trace always holds the most recent
// window of activity; Dropped reports how much history was lost. A nil
// *Trace is valid and ignores Emit, which lets components call it
// unconditionally on hot paths.
type Trace ring[Event]

func newTrace(depth int) *Trace { return (*Trace)(newRing[Event](depth)) }

func (t *Trace) ring() *ring[Event] { return (*ring[Event])(t) }

// Emit records one event. Nil-safe and allocation-free.
func (t *Trace) Emit(cycle uint64, kind EventKind, a, b uint64) {
	t.ring().emit(Event{Cycle: cycle, Kind: kind, A: a, B: b})
}

// Len returns the number of events currently held.
func (t *Trace) Len() int { return t.ring().len() }

// Dropped returns how many events were overwritten.
func (t *Trace) Dropped() uint64 { return t.ring().dropped() }

// Reset discards every event, keeping the storage (MarkROI calls it so
// exported traces cover the measured region instead of being diluted — or
// fully evicted — by warmup events).
func (t *Trace) Reset() { t.ring().reset() }

// Events returns the retained events in chronological order.
func (t *Trace) Events() []Event { return t.ring().records() }
