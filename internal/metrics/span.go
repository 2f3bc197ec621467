package metrics

// SpanKind identifies which hop of the memory path a span covers.
type SpanKind uint8

// The span vocabulary follows one sampled load from issue to data return:
// the whole-load envelope, translation, each SRAM level, the scheme's
// post-LLC path, and the component that finally produced the data.
const (
	// SpanLoad: core load issue to data return (the envelope).
	SpanLoad SpanKind = iota
	// SpanTLB: translation (L1/L2 TLB access or full page-table walk).
	SpanTLB
	// SpanL1 / SpanL2 / SpanLLC: one SRAM level's access, including any
	// miss handling below it.
	SpanL1
	SpanL2
	SpanLLC
	// SpanScheme: the post-LLC path of the scheme under test (tag/data-hit
	// verification plus the DRAM or buffer service).
	SpanScheme
	// SpanPCSHRWait: a NOMAD data miss parked in a PCSHR sub-entry until
	// its sub-block arrived.
	SpanPCSHRWait
	// SpanBuffer: a data miss serviced from a page copy buffer.
	SpanBuffer
	// SpanHBM / SpanDDR: DRAM device service (enqueue to data burst end).
	SpanHBM
	SpanDDR

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"load", "tlb", "l1", "l2", "llc",
	"scheme", "pcshr_wait", "buffer", "hbm", "ddr",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "invalid"
}

// Span is one recorded hop of a sampled access: the access's SpanID ties the
// hops together, Kind names the hop, and [Start, End] are cycle timestamps.
type Span struct {
	ID    uint64   `json:"id"`
	Kind  SpanKind `json:"kind"`
	Core  int32    `json:"core"`
	Start uint64   `json:"start"`
	End   uint64   `json:"end"`
}

// SpanRing is a fixed-capacity ring buffer of spans, the span counterpart of
// Trace: Emit overwrites the oldest record once full, Dropped reports lost
// history, and a nil *SpanRing ignores Emit so components hook spans in
// unconditionally.
type SpanRing ring[Span]

// NewSpanRing returns a ring holding depth spans (default 4096 when
// depth <= 0). Exported for tests; simulations obtain one through
// Registry.EnableSpans.
func NewSpanRing(depth int) *SpanRing { return (*SpanRing)(newRing[Span](depth)) }

func (r *SpanRing) ring() *ring[Span] { return (*ring[Span])(r) }

// Emit records one span. Nil-safe and allocation-free.
func (r *SpanRing) Emit(s Span) { r.ring().emit(s) }

// Len returns the number of spans currently held.
func (r *SpanRing) Len() int { return r.ring().len() }

// Dropped returns how many spans were overwritten.
func (r *SpanRing) Dropped() uint64 { return r.ring().dropped() }

// Spans returns the retained spans in emission order.
func (r *SpanRing) Spans() []Span { return r.ring().records() }

// Reset discards every span, keeping the storage (MarkROI calls it so
// exported spans cover the measured region only).
func (r *SpanRing) Reset() { r.ring().reset() }
