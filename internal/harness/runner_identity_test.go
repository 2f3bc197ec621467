package harness

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"nomad/internal/obs"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// TestExecuteDuplicateKeyAgreement: when a batch repeats a key, the tracker
// deduplicates it with a "#n" suffix — and the progress callback, the
// verbose host log, and the tracker's Statuses must all agree on the
// deduplicated identity (they used to disagree: progress and logs kept the
// original key).
func TestExecuteDuplicateKeyAgreement(t *testing.T) {
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	runs := []Run{
		{Key: "dup", Cfg: cfg, Spec: sp},
		{Key: "dup", Cfg: cfg, Spec: sp},
	}
	tracker := obs.NewRunTracker()
	var progressKeys []string
	var logBuf bytes.Buffer
	opts := Options{
		Parallelism: 1, // deterministic start order: first run claims "dup"
		Verbose:     true,
		Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
		Tracker:     tracker,
		Progress: func(key string) func(system.Progress) {
			progressKeys = append(progressKeys, key)
			return nil
		},
	}
	if _, err := Execute(context.Background(), opts, runs); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"dup", "dup#2"}
	if len(progressKeys) != 2 || progressKeys[0] != wantKeys[0] || progressKeys[1] != wantKeys[1] {
		t.Errorf("progress callback keys = %v, want %v", progressKeys, wantKeys)
	}
	var trackerKeys []string
	for _, s := range tracker.Statuses() {
		trackerKeys = append(trackerKeys, s.Key)
	}
	if len(trackerKeys) != 2 || trackerKeys[0] != wantKeys[0] || trackerKeys[1] != wantKeys[1] {
		t.Errorf("tracker keys = %v, want %v", trackerKeys, wantKeys)
	}
	logs := logBuf.String()
	for _, k := range wantKeys {
		if !strings.Contains(logs, "run="+k) {
			t.Errorf("verbose log missing run=%s:\n%s", k, logs)
		}
	}
}

// TestExecuteCancelledPartialResult pins the documented partial-output
// contract: a run cancelled inside its measured region still surfaces its
// partial result in Results (it used to be dropped because the error branch
// won over the result).
func TestExecuteCancelledPartialResult(t *testing.T) {
	sp, _ := workload.ByAbbr("tc")
	cfg := testConfig()
	cfg.WarmupInstructions = 0
	cfg.ROIInstructions = 50_000_000 // far beyond the cancellation point
	cfg.Interval = 20_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Parallelism: 1,
		// Cancel deterministically once the run is inside its ROI: the next
		// cancellation check then stops it mid-region.
		Progress: func(key string) func(system.Progress) {
			return func(p system.Progress) {
				if p.Phase == "roi" {
					cancel()
				}
			}
		},
	}
	res, err := Execute(ctx, opts, []Run{{Key: "k", Cfg: cfg, Spec: sp}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	partial := res["k"]
	if partial == nil {
		t.Fatal("cancelled run's partial result missing from Results")
	}
	if partial.Metrics == nil || partial.Metrics.Cycles == 0 {
		t.Fatalf("partial result has no measured cycles: %+v", partial.Result)
	}
	if partial.Instructions >= cfg.ROIInstructions {
		t.Fatalf("run retired %d instructions; cancellation never interrupted it", partial.Instructions)
	}
}
