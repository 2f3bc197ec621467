package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestCounterAndFunc(t *testing.T) {
	r := NewRegistry()
	var field, raw uint64
	r.Counter("a.field", &field)
	r.CounterFunc("a.lazy", func() uint64 { return raw + field })
	field += 5
	raw = 2
	s := r.Snapshot(10)
	if s.Counter("a.field") != 5 || s.Counter("a.lazy") != 7 {
		t.Fatalf("counters wrong: %v", s.Counters)
	}
	if s.Counter("missing") != 0 {
		t.Fatal("missing counter not zero")
	}
	if s.Cycles != 10 {
		t.Fatalf("snapshot metadata wrong: %+v", s)
	}
}

// TestDuplicateNamePanics: registration does not check names, but a snapshot
// of two counters registered under one name panics rather than report one of
// them.
func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("snapshot of a duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var a, b uint64
	r.Counter("x", &a)
	r.Counter("x", &b)
	r.Snapshot(0)
}

// TestDuplicateNamesReported: Duplicates names each metric registered twice
// once, whether the two registrations are of one kind or of two (counters,
// gauges and histograms share a namespace), and each timeline column
// registered twice (TestTimelineFilter covers a filtered one); a counter and
// a timeline column may share a name.
func TestDuplicateNamesReported(t *testing.T) {
	r := NewRegistry()
	var v uint64
	col := func(uint64) float64 { return 0 }
	r.Counter("x", &v)
	r.Counter("x", &v)
	r.Counter("x", &v)
	r.Histogram("h")
	r.GaugeFunc("h", func() float64 { return 0 })
	r.Counter("unique", &v)
	r.IntervalFunc("unique", nil, col)
	r.IntervalFunc("dup", nil, col)
	r.IntervalFunc("dup", nil, col)
	if d := r.Duplicates(); fmt.Sprint(d) != "[h x timeline dup]" {
		t.Fatalf("Duplicates() = %q, want [h x timeline dup]", d)
	}
	if d := NewRegistry().Duplicates(); len(d) != 0 {
		t.Fatalf("empty registry: Duplicates() = %q", d)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 1, 3, 400, 400, 1 << 40} {
		h.Observe(v)
	}
	hs := r.Snapshot(1).Histograms["lat"]
	if hs.Count != 7 || hs.Min != 0 || hs.Max != 1<<40 {
		t.Fatalf("histogram summary wrong: %+v", hs)
	}
	want := map[uint64]uint64{0: 1, 1: 2, 2: 1, 256: 2, 1 << 40: 1} // keyed by bucket Lo
	for _, b := range hs.Buckets {
		if want[b.Lo] != b.Count {
			t.Fatalf("bucket lo=%d count=%d, want %d", b.Lo, b.Count, want[b.Lo])
		}
		if b.Lo != 0 && (b.Lo > b.Hi || b.Hi >= 2*b.Lo) {
			t.Fatalf("bucket bounds wrong: %+v", b)
		}
		delete(want, b.Lo)
	}
	if len(want) != 0 {
		t.Fatalf("buckets missing: %v", want)
	}
	// Nil histogram is a no-op, not a crash.
	var nh *Histogram
	nh.Observe(5)
	if nh.Count() != 0 || nh.Mean() != 0 {
		t.Fatal("nil histogram misbehaved")
	}
}

func TestMarkROIDiffs(t *testing.T) {
	r := NewRegistry()
	var c uint64
	r.Counter("n", &c)
	h := r.Histogram("h")
	c += 10
	h.Observe(100)
	r.MarkROI(16)
	c += 3
	h.Observe(7)
	s := r.Snapshot(32)
	if s.Cycles != 16 {
		t.Fatalf("ROI cycles = %d, want 16", s.Cycles)
	}
	if s.Counter("n") != 3 {
		t.Fatalf("counter not diffed: %d", s.Counter("n"))
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 7 {
		t.Fatalf("histogram not diffed: %+v", hs)
	}
	if hs.Min != 7 || hs.Max != 100 {
		t.Fatalf("histogram min/max should span the whole run: %+v", hs)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("g", func() float64 { return v })
	r.MarkROI(0)
	v = 2.5
	if got := r.Snapshot(1).Gauge("g"); got != 2.5 {
		t.Fatalf("gauge = %v, want instantaneous 2.5", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		last, first := uint64(3), uint64(1)
		r.Counter("z.last", &last)
		r.Counter("a.first", &first)
		r.GaugeFunc("m.gauge", func() float64 { return 0.25 })
		r.Histogram("h").Observe(9)
		b, err := json.Marshal(r.Snapshot(8))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", a, b)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewRegistry()
	tr := r.EnableTrace(4)
	if r.Trace() != tr {
		t.Fatal("trace not attached")
	}
	for i := uint64(0); i < 6; i++ {
		tr.Emit(i, EvRowConflict, i, 0)
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Cycle != uint64(i)+2 {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	var nt *Trace
	nt.Emit(1, EvFillStart, 0, 0) // must not crash
	if nt.Len() != 0 || nt.Events() != nil || nt.Dropped() != 0 {
		t.Fatal("nil trace misbehaved")
	}
	if EvTagMissBegin.String() != "tag_miss_begin" || EventKind(200).String() != "invalid" {
		t.Fatal("event kind names wrong")
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		b      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{10, 512, 1023},
		{64, 1 << 63, ^uint64(0)},
	}
	for _, c := range cases {
		lo, hi := bucketBounds(c.b)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("bucketBounds(%d) = %d..%d, want %d..%d", c.b, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.Counter("b", &v)
	r.Counter("a", &v)
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestTraceRingExactCapacity(t *testing.T) {
	tr := newTrace(4)
	for i := uint64(0); i < 4; i++ {
		tr.Emit(i, EvRowConflict, i, 0)
	}
	// Exactly at capacity: everything retained, nothing dropped.
	if tr.Len() != 4 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 4/0", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Cycle != uint64(i) {
			t.Fatalf("events reordered at capacity boundary: %+v", evs)
		}
	}
	// One past capacity: the oldest entry is the (single) drop, and the
	// rotation copy stays chronological across the wrap point.
	tr.Emit(4, EvRowConflict, 4, 0)
	if tr.Len() != 4 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 4/1", tr.Len(), tr.Dropped())
	}
	for i, ev := range tr.Events() {
		if ev.Cycle != uint64(i)+1 {
			t.Fatalf("events out of order after wrap: %+v", tr.Events())
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("reset did not clear the ring")
	}
}

func TestSpanRing(t *testing.T) {
	r := NewRegistry()
	sr := r.EnableSpans(2)
	if r.Spans() != sr {
		t.Fatal("span ring not attached")
	}
	for i := uint64(1); i <= 3; i++ {
		sr.Emit(Span{ID: i, Kind: SpanLoad, Start: i, End: i + 10})
	}
	if sr.Len() != 2 || sr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", sr.Len(), sr.Dropped())
	}
	spans := sr.Spans()
	if spans[0].ID != 2 || spans[1].ID != 3 {
		t.Fatalf("wrap order wrong: %+v", spans)
	}
	var ns *SpanRing
	ns.Emit(Span{}) // must not crash
	if ns.Len() != 0 || ns.Spans() != nil || ns.Dropped() != 0 {
		t.Fatal("nil span ring misbehaved")
	}
	if SpanPCSHRWait.String() != "pcshr_wait" || SpanKind(200).String() != "invalid" {
		t.Fatal("span kind names wrong")
	}
}

func TestMarkROIResetsRings(t *testing.T) {
	r := NewRegistry()
	tr := r.EnableTrace(8)
	sr := r.EnableSpans(8)
	for i := uint64(0); i < 12; i++ {
		tr.Emit(i, EvRowConflict, i, 0)
		sr.Emit(Span{ID: i + 1, Kind: SpanLoad, Start: i, End: i + 1})
	}
	r.MarkROI(100)
	if tr.Len() != 0 || tr.Dropped() != 0 || sr.Len() != 0 || sr.Dropped() != 0 {
		t.Fatal("MarkROI did not clear the trace rings")
	}
	// Post-ROI captures surface in the snapshot summary.
	tr.Emit(101, EvTagMissBegin, 7, 0)
	sr.Emit(Span{ID: 9, Kind: SpanDDR, Start: 101, End: 140})
	s := r.Snapshot(200)
	if s.Trace == nil {
		t.Fatal("snapshot missing trace summary")
	}
	if s.Trace.Events != 1 || s.Trace.Spans != 1 ||
		s.Trace.EventsDropped != 0 || s.Trace.SpansDropped != 0 {
		t.Fatalf("trace summary = %+v", s.Trace)
	}
}
