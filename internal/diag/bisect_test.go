package diag

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nomad/internal/system"
	"nomad/internal/workload"
)

// testSpec is a small workload that fits the shrunken test config.
func testSpec() workload.Spec {
	return workload.Spec{
		Name: "test-stream", Abbr: "ts", Class: "Excess",
		FootprintPages: 4096,
		RunBlocks:      64, SeqPageFrac: 0.9,
		GapMean: 8, WriteFrac: 0.25,
	}
}

func testSpecRun(seed uint64) RunSpec {
	cfg := system.DefaultConfig()
	cfg.Cores = 2
	cfg.Scheme = system.SchemeTDC
	cfg.CacheFrames = 2048
	cfg.WarmupInstructions = 60_000
	cfg.ROIInstructions = 120_000
	cfg.Interval = 20_000
	cfg.Seed = seed
	return RunSpec{Key: "TDC/ts/" + string(rune('0'+seed)), Cfg: cfg, Spec: testSpec()}
}

// TestBisectLocalizesDivergence is the end-to-end contract: two
// different-seed TDC runs diverge; Bisect must localize the first divergent
// interval, produce window deltas and a cutoff diff, and emit two non-empty
// Perfetto traces of the prefix.
func TestBisectLocalizesDivergence(t *testing.T) {
	rep, err := Bisect(context.Background(), testSpecRun(1), testSpecRun(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatal("different seeds reported identical")
	}
	d := rep.Digests
	if d == nil || d.FirstDivergent < 0 {
		t.Fatalf("no divergent interval localized: %+v", d)
	}
	if d.WindowEnd == 0 || d.WindowEnd <= d.WindowStart {
		t.Errorf("window bounds = %d..%d", d.WindowStart, d.WindowEnd)
	}
	if len(rep.WindowDeltas) == 0 {
		t.Error("no timeline deltas for the divergent window")
	}
	if rep.Cutoff == nil {
		t.Fatal("no cutoff diff from the replay pass")
	}
	// The replay stops at the divergent window's end on both sides; the
	// cutoff diff must reflect that exact span.
	if rep.Cutoff.CyclesA != d.WindowEnd || rep.Cutoff.CyclesB != d.WindowEnd {
		t.Errorf("cutoff spans = %d/%d, want both exactly %d",
			rep.Cutoff.CyclesA, rep.Cutoff.CyclesB, d.WindowEnd)
	}
	for name, tr := range map[string][]byte{"A": rep.TraceA, "B": rep.TraceB} {
		if len(tr) == 0 {
			t.Errorf("trace %s is empty", name)
			continue
		}
		if !bytes.Contains(tr, []byte("traceEvents")) {
			t.Errorf("trace %s is not a Perfetto document", name)
		}
	}

	var sb strings.Builder
	if err := rep.WriteText(&sb, 5); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "first divergent interval") {
		t.Errorf("rendering missing localization:\n%s", out)
	}
}

// TestBisectIdentical: the same spec against itself short-circuits after
// pass 1 with no replay artifacts.
func TestBisectIdentical(t *testing.T) {
	rep, err := Bisect(context.Background(), testSpecRun(1), testSpecRun(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("same spec reported divergent: %+v", rep.Digests)
	}
	if !rep.Full.Identical() {
		t.Error("full diff not identical")
	}
	if rep.Cutoff != nil || rep.TraceA != nil || rep.TraceB != nil {
		t.Error("replay artifacts present for identical runs")
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "identical") {
		t.Errorf("rendering: %s", sb.String())
	}
}
