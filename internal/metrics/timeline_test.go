package metrics

import (
	"encoding/json"
	"testing"
)

func TestIntervalFuncCollects(t *testing.T) {
	r := NewRegistry()
	var v uint64
	var base uint64
	r.IntervalFunc("x.rate",
		func(now uint64) { base = v },
		func(now uint64) float64 { d := v - base; base = v; return float64(d) })

	r.BeginTimeline(0, 100)
	v = 5
	r.SampleInterval(100)
	v = 12
	r.SampleInterval(200)
	r.FinishTimeline(250)

	tl := r.Snapshot(250).Timeline
	if tl == nil {
		t.Fatal("no timeline in snapshot")
	}
	if tl.Interval != 100 || tl.StartCycle != 0 {
		t.Fatalf("interval/start = %d/%d", tl.Interval, tl.StartCycle)
	}
	if tl.Windows() != 3 {
		t.Fatalf("windows = %d, want 3 (two full + one partial)", tl.Windows())
	}
	wantCycles := []uint64{100, 200, 250}
	for i, c := range wantCycles {
		if tl.Cycles[i] != c {
			t.Fatalf("Cycles = %v, want %v", tl.Cycles, wantCycles)
		}
	}
	col := tl.Metric("x.rate")
	if len(col) != 3 || col[0] != 5 || col[1] != 7 || col[2] != 0 {
		t.Fatalf("column = %v, want [5 7 0]", col)
	}
}

func TestTimelineInactiveIsNil(t *testing.T) {
	r := NewRegistry()
	r.IntervalFunc("x", nil, func(uint64) float64 { return 1 })
	r.SampleInterval(100) // no BeginTimeline: must be a no-op
	if tl := r.Snapshot(100).Timeline; tl != nil {
		t.Fatalf("timeline without BeginTimeline: %+v", tl)
	}
}

func TestTimelineDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.IntervalFunc("dup", nil, func(uint64) float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate interval metric did not panic")
		}
	}()
	r.IntervalFunc("dup", nil, func(uint64) float64 { return 0 })
}

func TestTimelineSeparateNamespace(t *testing.T) {
	// An interval metric may share its name with a counter: they live in
	// different namespaces (Counters vs Timeline.Metrics).
	r := NewRegistry()
	c := r.Counter("shared.name")
	r.IntervalFunc("shared.name", nil, func(uint64) float64 { return 1 })
	c.Add(3)
	r.BeginTimeline(0, 10)
	r.SampleInterval(10)
	s := r.Snapshot(10)
	if s.Counters["shared.name"] != 3 || s.Timeline.Metric("shared.name")[0] != 1 {
		t.Fatal("namespaces collided")
	}
}

func TestTimelineFilter(t *testing.T) {
	r := NewRegistry()
	r.SetTimelineFilter([]string{"core.", "hbm.gbs."})
	r.IntervalFunc("core.0.ipc", nil, func(uint64) float64 { return 1 })
	r.IntervalFunc("hbm.gbs.fill", nil, func(uint64) float64 { return 2 })
	r.IntervalFunc("ddr.row_conflict_rate", nil, func(uint64) float64 { return 3 })
	r.BeginTimeline(0, 10)
	r.SampleInterval(10)
	tl := r.Snapshot(10).Timeline
	if len(tl.Metrics) != 2 {
		t.Fatalf("filter kept %d metrics, want 2: %v", len(tl.Metrics), tl.Metrics)
	}
	if tl.Metric("ddr.row_conflict_rate") != nil {
		t.Fatal("filtered metric still collected")
	}
	// Filtered names still occupy the namespace: re-registering must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering filtered name did not panic")
		}
	}()
	r.IntervalFunc("ddr.row_conflict_rate", nil, func(uint64) float64 { return 0 })
}

func TestBeginTimelineReprimes(t *testing.T) {
	// BeginTimeline discards earlier windows and re-runs prime closures, so
	// delta metrics restart from the new anchor (the MarkROI property).
	r := NewRegistry()
	var v, base uint64
	r.IntervalFunc("d", func(now uint64) { base = v },
		func(now uint64) float64 { d := v - base; base = v; return float64(d) })
	r.BeginTimeline(0, 100)
	v = 50
	r.SampleInterval(100)
	v = 80
	r.BeginTimeline(150, 100) // warmup over: re-anchor
	v = 95
	r.SampleInterval(250)
	tl := r.Snapshot(250).Timeline
	if tl.StartCycle != 150 || tl.Windows() != 1 {
		t.Fatalf("start=%d windows=%d, want 150/1", tl.StartCycle, tl.Windows())
	}
	if got := tl.Metric("d")[0]; got != 15 {
		t.Fatalf("delta after re-begin = %v, want 15 (95-80, not 95-50)", got)
	}
}

func TestSampleIntervalGuardsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.IntervalFunc("x", nil, func(uint64) float64 { return 1 })
	r.BeginTimeline(0, 100)
	r.SampleInterval(100)
	r.FinishTimeline(100) // run ended exactly on a boundary: no extra row
	if tl := r.Snapshot(100).Timeline; tl.Windows() != 1 {
		t.Fatalf("windows = %d, want 1", tl.Windows())
	}
}

func TestTimelineSnapshotIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	r.IntervalFunc("x", nil, func(uint64) float64 { return 1 })
	r.BeginTimeline(0, 100)
	r.SampleInterval(100)
	tl := r.Snapshot(100).Timeline
	tl.Cycles[0] = 999
	tl.Metrics["x"][0] = -1
	if tl2 := r.Snapshot(100).Timeline; tl2.Cycles[0] != 100 || tl2.Metrics["x"][0] != 1 {
		t.Fatal("snapshot shares storage with registry")
	}
}

func TestTimelineJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		for _, name := range []string{"b.two", "a.one", "c.three"} {
			n := name
			r.IntervalFunc(n, nil, func(now uint64) float64 { return float64(len(n)) + float64(now) })
		}
		r.BeginTimeline(0, 100)
		r.SampleInterval(100)
		r.SampleInterval(200)
		data, err := json.Marshal(r.Snapshot(200).Timeline)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if string(build()) != string(build()) {
		t.Fatal("timeline JSON not byte-identical across identical builds")
	}
}

func TestMarkROIReanchorsTimeline(t *testing.T) {
	r := NewRegistry()
	r.IntervalFunc("x", nil, func(uint64) float64 { return 1 })
	r.BeginTimeline(0, 100)
	r.SampleInterval(100)
	r.MarkROI(137)
	tl := r.Snapshot(300).Timeline
	if tl.StartCycle != 137 || tl.Windows() != 0 {
		t.Fatalf("after MarkROI: start=%d windows=%d, want 137/0", tl.StartCycle, tl.Windows())
	}
}
