package nomad

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"nomad/internal/system"
)

func TestRunContextCancellation(t *testing.T) {
	// A cancelled simulation must return promptly (the engine checks ctx
	// every sampling window — microseconds of wall time), with a typed
	// *Error wrapping context.Canceled and no partial Result.
	w, _ := WorkloadByAbbr("tc")
	cfg := Config{
		Scheme:             SchemeNOMAD,
		Cores:              2,
		WarmupInstructions: 1,
		ROIInstructions:    500_000_000, // far beyond what could finish
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunContext(ctx, cfg, w)
		done <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case o := <-done:
		if elapsed := time.Since(cancelled); elapsed > 2*time.Second {
			t.Errorf("cancellation took %v, want well under a second", elapsed)
		}
		if o.res != nil {
			t.Error("cancelled run returned a partial Result")
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", o.err)
		}
		var e *Error
		if !errors.As(o.err, &e) {
			t.Fatalf("err = %T, want *nomad.Error", o.err)
		}
		if e.Op != "run" || e.Scheme != SchemeNOMAD || e.Workload != "tc" {
			t.Fatalf("error identity wrong: %+v", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancel")
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, fastConfig(SchemeBaseline), w); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestErrorTypeOnBadConfig(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	_, err := Run(Config{Scheme: "Nope"}, w)
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err = %T, want *nomad.Error", err)
	}
	if e.Op != "validate" || e.Workload != "tc" {
		t.Fatalf("error identity wrong: %+v", e)
	}
	if e.Unwrap() == nil {
		t.Fatal("no wrapped cause")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	w, _ := WorkloadByAbbr("tc")
	res, err := Run(fastConfig(SchemeNOMAD), w)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics()
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if snap.Cycles != res.Cycles {
		t.Fatalf("snapshot cycles %d != result cycles %d", snap.Cycles, res.Cycles)
	}
	// The stable names the docs promise, one per subsystem.
	for _, name := range []string{
		"core.0.instructions", "core.1.cycles",
		"cache.l1.0.hits", "cache.l2.1.misses", "cache.llc.misses",
		"hbm.reads", "ddr.bytes.fill",
		"scheme.reads", "frontend.tag_misses", "backend.fills",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing", name)
		}
	}
	var insns uint64
	for i := 0; i < 2; i++ {
		insns += snap.Counter(fmt.Sprintf("core.%d.instructions", i))
	}
	if insns != res.Instructions {
		t.Fatalf("per-core instructions sum %d != %d", insns, res.Instructions)
	}
	if h, ok := snap.Histograms["frontend.tag_mgmt_latency"]; !ok || h.Count == 0 {
		t.Fatal("tag management latency histogram missing or empty")
	} else if h.Mean() <= 0 || h.Min > h.Max {
		t.Fatalf("degenerate histogram: %+v", h)
	}
}

func TestMetricsJSONByteIdentical(t *testing.T) {
	// The acceptance bar for machine-readable output: two same-seed runs
	// must marshal byte-identical metrics JSON.
	w, _ := WorkloadByAbbr("cact")
	cfg := fastConfig(SchemeNOMAD)
	a, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same-seed metrics JSON differs (%d vs %d bytes)", len(ja), len(jb))
	}
	if len(ja) < 1024 {
		t.Fatalf("suspiciously small snapshot: %d bytes", len(ja))
	}
}

func TestRunExperimentResultStructured(t *testing.T) {
	res, err := RunExperimentResult(context.Background(), "replacement", ExperimentOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "replacement" || res.Title == "" {
		t.Fatalf("identity wrong: %+v", res)
	}
	var tables int
	for _, sec := range res.Sections {
		if sec.Table != nil {
			tables++
			if len(sec.Table.Header) == 0 || len(sec.Table.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range sec.Table.Rows {
				if len(row) != len(sec.Table.Header) {
					t.Fatalf("ragged row: %v vs header %v", row, sec.Table.Header)
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no tables in report")
	}
	var text bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Fatal("empty text rendering")
	}
}

// TestRunExperimentResultRejectsBadTelemetry: out-of-range ring depths fail
// with the typed validate error before any run starts, under the bounds
// Config.Validate applies.
func TestRunExperimentResultRejectsBadTelemetry(t *testing.T) {
	for _, tel := range []Telemetry{{TraceDepth: -1}, {SpanDepth: system.MaxRingDepth + 1}} {
		res, err := RunExperimentResult(context.Background(), "replacement", ExperimentOptions{Telemetry: tel})
		var e *Error
		if !errors.As(err, &e) || e.Op != "validate" || res != nil {
			t.Errorf("%+v: got (%v, %v), want a *nomad.Error with Op validate", tel, res != nil, err)
		}
	}
}

func TestRunExperimentResultCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperimentResult(ctx, "fig9", ExperimentOptions{Fast: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
