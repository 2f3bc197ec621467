package system

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"nomad/internal/metrics"
	"nomad/internal/sim"
)

// TestEngineByteIdentical is the scheduler-swap correctness contract: for
// every scheme, with fast-forward both on and off, a run on the timing-wheel
// engine must produce byte-for-byte the same metrics snapshot (counters,
// timeline, trace summary) and the same Perfetto trace as the same run on
// the binary-heap oracle. Together with TestFastForwardByteIdentical this
// pins the full 2x2 engine/fast-forward matrix to one observable behaviour.
func TestEngineByteIdentical(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		for _, ff := range []bool{true, false} {
			ff := ff
			t.Run(fmt.Sprintf("%s/ff=%v", s, ff), func(t *testing.T) {
				run := func(engine string) ([]byte, []byte) {
					cfg := smallConfig(s)
					cfg.Timeline = true
					cfg.Interval = 20_000
					cfg.TraceDepth = 1 << 12
					cfg.SpanDepth = 1 << 11
					cfg.FastForward = ff
					r, err := newOn(t, engine, cfg).Run()
					if err != nil {
						t.Fatalf("Run(%s, %s): %v", s, engine, err)
					}
					snap, err := json.Marshal(r.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					var trace bytes.Buffer
					if err := metrics.WritePerfetto(&trace, metrics.PerfettoRun{Name: "eng", Dump: r.Trace}); err != nil {
						t.Fatal(err)
					}
					return snap, trace.Bytes()
				}
				wheelSnap, wheelTrace := run("wheel")
				heapSnap, heapTrace := run("heap")
				if !bytes.Equal(wheelSnap, heapSnap) {
					t.Errorf("metrics snapshot differs between wheel and heap engines\nwheel: %.400s\nheap:  %.400s", wheelSnap, heapSnap)
				}
				if !bytes.Equal(wheelTrace, heapTrace) {
					t.Error("Perfetto trace differs between wheel and heap engines")
				}
			})
		}
	}
}

// engines names the two event queues the differential suites compare: the
// timing wheel every run uses and the binary-heap oracle.
var engines = []string{"wheel", "heap"}

// newOn builds cfg's machine on the named event queue. It fails t unless
// the engine runs on the heap exactly when asked to, so a dropped option
// cannot turn a differential suite into a comparison of the wheel with
// itself.
func newOn(t *testing.T, engine string, cfg Config) *Machine {
	t.Helper()
	var opts []sim.Option
	if engine == "heap" {
		opts = append(opts, sim.WithScheduler(sim.NewHeapScheduler()))
	}
	m, err := newMachine(cfg, smallSpec(), opts...)
	if err != nil {
		t.Fatalf("New(%s, %s): %v", cfg.Scheme, engine, err)
	}
	if _, heap := m.Engine().SchedulerImpl().(*sim.HeapScheduler); heap != (engine == "heap") {
		t.Fatalf("engine %q built scheduler %T", engine, m.Engine().SchedulerImpl())
	}
	return m
}
