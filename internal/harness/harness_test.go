package harness

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nomad/internal/metrics"
	"nomad/internal/system"
	"nomad/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ablations", "replacement", "selective", "cpistack", "timeline"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := Get("fig99"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestAllStableOrder(t *testing.T) {
	a, b := All(), All()
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("All() order is not stable")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("A", "BB")
	tb.Addf("x", 1.5)
	tb.Add("longer", "y")
	var buf bytes.Buffer
	tb.Write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "A") || !strings.Contains(lines[0], "BB") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.50") {
		t.Fatalf("float not formatted: %q", lines[2])
	}
}

func TestReportWriteText(t *testing.T) {
	rep := &Report{ID: "x", Title: "X"}
	tb := NewTable("A")
	tb.Add("1")
	rep.add(tb, "first note", "second note")
	rep.add(nil, "closing line")
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "first note\nsecond note\n\nA\n-\n1\n\nclosing line\n"
	if out != want {
		t.Fatalf("WriteText:\n%q\nwant:\n%q", out, want)
	}
}

func TestKey(t *testing.T) {
	if got := key("a", 1, true); got != "a/1/true" {
		t.Fatalf("key = %q", got)
	}
}

func testConfig() system.Config {
	cfg := system.DefaultConfig()
	cfg.Cores = 2
	cfg.Scheme = system.SchemeNOMAD
	cfg.CacheFrames = 4096
	cfg.WarmupInstructions = 30_000
	cfg.ROIInstructions = 60_000
	return cfg
}

func TestExecuteParallelDeterminism(t *testing.T) {
	// The same run executed twice (even concurrently) must give identical
	// results: the public determinism guarantee the harness relies on.
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	runs := []Run{
		{Key: "a", Cfg: cfg, Spec: sp},
		{Key: "b", Cfg: cfg, Spec: sp},
	}
	res, err := Execute(context.Background(), Options{Parallelism: 2}, runs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res["a"], res["b"]
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.TagMisses != b.TagMisses {
		t.Fatalf("identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	// A batch must produce identical results whether it runs on 1 worker
	// or many: scheduling must not leak into simulation outcomes.
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	var runs []Run
	for _, k := range []string{"a", "b", "c"} {
		runs = append(runs, Run{Key: k, Cfg: cfg, Spec: sp})
	}
	serial, err := Execute(context.Background(), Options{Parallelism: 1}, runs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Execute(context.Background(), Options{Parallelism: 3}, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		s, p := serial[k], parallel[k]
		if s.Cycles != p.Cycles || s.Instructions != p.Instructions || s.IPC != p.IPC {
			t.Fatalf("run %q diverged across worker counts:\n%v\n%v", k, s, p)
		}
	}
}

func TestExecuteJoinsAllErrors(t *testing.T) {
	// Every failing run must be reported (errors.Join), annotated with its
	// key, and successful runs must still be returned.
	sp, _ := workload.ByAbbr("tc")
	good := testConfig()
	bad := testConfig()
	bad.Scheme = "NoSuchScheme"
	runs := []Run{
		{Key: "bad1", Cfg: bad, Spec: sp},
		{Key: "ok", Cfg: good, Spec: sp},
		{Key: "bad2", Cfg: bad, Spec: sp},
	}
	res, err := Execute(context.Background(), Options{Parallelism: 2}, runs)
	if err == nil {
		t.Fatal("invalid scheme did not error")
	}
	for _, want := range []string{`"bad1"`, `"bad2"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if res["ok"] == nil {
		t.Error("successful run missing from partial results")
	}
	if res["bad1"] != nil || res["bad2"] != nil {
		t.Error("failed runs present in results")
	}
}

func TestExecuteCancelledMidBatch(t *testing.T) {
	// Cancelling during a batch returns ctx.Err() (exactly once, not per
	// run) and whatever completed before the cancellation.
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	cfg.WarmupInstructions = 0
	cfg.ROIInstructions = 5_000_000 // long enough to straddle the cancel
	var runs []Run
	for i := 0; i < 4; i++ {
		runs = append(runs, Run{Key: key("r", i), Cfg: cfg, Spec: sp})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Execute(ctx, Options{Parallelism: 2}, runs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Fatalf("context.Canceled reported %d times, want once: %v", n, err)
	}
}

func TestExecuteBoundsParallelism(t *testing.T) {
	// Options.Parallelism is the worker-pool size: no more than that many
	// simulations may be in flight at once.
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	cfg.WarmupInstructions = 10_000
	cfg.ROIInstructions = 20_000
	var runs []Run
	for i := 0; i < 6; i++ {
		runs = append(runs, Run{Key: key("r", i), Cfg: cfg, Spec: sp})
	}
	// Each in-flight simulation polls ctx.Err() every 8192 cycles, so
	// the peak number of concurrent Err() sections bounds the number of
	// concurrent runs. Exceeding the limit can only happen if Execute
	// really runs too many simulations at once; the check cannot fail
	// spuriously.
	var inFlight, peak atomic.Int64
	ctx := &countingContext{Context: context.Background(), inFlight: &inFlight, peak: &peak}
	if _, err := Execute(ctx, Options{Parallelism: 2}, runs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent runs, want <= 2", p)
	}
}

// countingContext tracks the peak number of concurrent Err() sections. The
// brief hold makes overlap between concurrently running simulations (which
// poll Err() every 8192 cycles) observable.
type countingContext struct {
	context.Context
	inFlight *atomic.Int64
	peak     *atomic.Int64
}

func (c *countingContext) Err() error {
	n := c.inFlight.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(100 * time.Microsecond)
	c.inFlight.Add(-1)
	return c.Context.Err()
}

func TestOptionsBaseConfig(t *testing.T) {
	slow := Options{}.BaseConfig()
	fast := Options{Fast: true}.BaseConfig()
	if fast.ROIInstructions >= slow.ROIInstructions {
		t.Fatal("fast mode did not shrink the ROI")
	}
	if (Options{}).workers() < 1 {
		t.Fatal("workers < 1")
	}
	if (Options{Parallelism: 3}).workers() != 3 {
		t.Fatal("explicit parallelism ignored")
	}
}

func TestBaseConfigCarriesTelemetryOptions(t *testing.T) {
	opts := Options{Telemetry: system.Telemetry{
		Timeline:        true,
		Interval:        12_345,
		TimelineMetrics: []string{"core.", "hbm."},
		SelfProfile:     true,
		TraceDepth:      7,
	}}
	cfg := opts.BaseConfig()
	if !cfg.Timeline || cfg.Interval != 12_345 || !cfg.SelfProfile || cfg.TraceDepth != 7 {
		t.Fatalf("options not carried into config: %+v", cfg)
	}
	if len(cfg.TimelineMetrics) != 2 || cfg.TimelineMetrics[0] != "core." {
		t.Fatalf("timeline metrics filter lost: %v", cfg.TimelineMetrics)
	}
}

func TestDropWarnings(t *testing.T) {
	mk := func(evDrop, spDrop uint64) *RunResult {
		return &RunResult{Result: &system.Result{Metrics: &metrics.Snapshot{
			Trace: &metrics.TraceSummary{
				Events: 10, EventsDropped: evDrop,
				Spans: 20, SpansDropped: spDrop,
			},
		}}}
	}
	res := Results{
		"b/clean":   mk(0, 0),
		"a/events":  mk(5, 0),
		"c/spans":   mk(0, 3),
		"d/notrace": {Result: &system.Result{Metrics: &metrics.Snapshot{}}},
	}
	warns := dropWarnings(res)
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want 2", warns)
	}
	// Sorted by key: a/events first, c/spans second.
	if !strings.Contains(warns[0], "a/events") || !strings.Contains(warns[0], "dropped 5 of 15 events") {
		t.Fatalf("event warning wrong: %q", warns[0])
	}
	if !strings.Contains(warns[1], "c/spans") || !strings.Contains(warns[1], "dropped 3 of 23 spans") {
		t.Fatalf("span warning wrong: %q", warns[1])
	}
}

func TestNewReportAttachesWarnings(t *testing.T) {
	res := Results{"k": &RunResult{Result: &system.Result{Metrics: &metrics.Snapshot{
		Trace: &metrics.TraceSummary{Events: 1, EventsDropped: 2},
	}}}}
	rep := newReport("fig2", res)
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "k:") {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
}
