package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"nomad/internal/metrics"
)

// TestFastForwardByteIdentical is the fast-forward correctness contract: for
// every scheme, a run with activity-driven ticking (sleeping components,
// lazily charged stall cycles, clock jumps) must produce byte-for-byte the
// same metrics snapshot (counters, timeline, trace summary) and the same
// Perfetto trace as the same run with every component ticked every cycle.
// Only the host-side skip counters may differ.
func TestFastForwardByteIdentical(t *testing.T) {
	anySkipped := false
	for _, s := range AllSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			run := func(ff bool) (*Result, []byte, []byte) {
				cfg := smallConfig(s)
				cfg.Timeline = true
				cfg.Interval = 20_000
				cfg.TraceDepth = 1 << 12
				cfg.SpanDepth = 1 << 11
				cfg.SelfProfile = true
				cfg.FastForward = ff
				m, err := New(cfg, smallSpec())
				if err != nil {
					t.Fatalf("New(%s, ff=%v): %v", s, ff, err)
				}
				r, err := m.Run()
				if err != nil {
					t.Fatalf("Run(%s, ff=%v): %v", s, ff, err)
				}
				snap, err := json.Marshal(r.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				var trace bytes.Buffer
				if err := metrics.WritePerfetto(&trace, metrics.PerfettoRun{Name: "ff", Dump: r.Trace}); err != nil {
					t.Fatal(err)
				}
				return r, snap, trace.Bytes()
			}
			on, onSnap, onTrace := run(true)
			off, offSnap, offTrace := run(false)
			if !bytes.Equal(onSnap, offSnap) {
				t.Errorf("metrics snapshot differs between fast-forward on and off\non:  %.400s\noff: %.400s", onSnap, offSnap)
			}
			if !bytes.Equal(onTrace, offTrace) {
				t.Error("Perfetto trace differs between fast-forward on and off")
			}
			if off.Host.SkippedCycles != 0 || off.Host.Jumps != 0 {
				t.Errorf("stepped run reported skips: %d cycles, %d jumps", off.Host.SkippedCycles, off.Host.Jumps)
			}
			if on.Host.SkippedCycles > 0 {
				anySkipped = true
				if on.Host.Jumps == 0 {
					t.Error("skipped cycles reported without any jumps")
				}
			}
			t.Logf("%s: %d/%d cycles skipped in %d jumps", s, on.Host.SkippedCycles, on.Host.SimCycles, on.Host.Jumps)
		})
	}
	if !anySkipped {
		t.Error("fast-forward never skipped a cycle on any scheme; the engine is inert")
	}
}
