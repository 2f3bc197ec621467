package obs

import (
	"fmt"
	"sync"
	"testing"

	"nomad/internal/system"
)

// TestTrackerEviction: completed runs beyond DefaultCompletedRetention are
// evicted oldest-first, active runs are never evicted, and Counts stays
// consistent (active by explicit counter, completed cumulative across
// evictions).
func TestTrackerEviction(t *testing.T) {
	tr := NewRunTracker()
	live := tr.Start("live", nil)
	const extra = 7
	n := DefaultCompletedRetention + extra
	for i := 0; i < n; i++ {
		tr.Start(fmt.Sprintf("r%d", i), nil).Finish()
	}
	if active, completed := tr.Counts(); active != 1 || completed != uint64(n) {
		t.Fatalf("Counts() = (%d, %d), want (1, %d)", active, completed, n)
	}
	var keys []string
	for _, s := range tr.Statuses() {
		keys = append(keys, s.Key)
	}
	want := []string{"live"}
	for i := extra; i < n; i++ {
		want = append(want, fmt.Sprintf("r%d", i))
	}
	if len(keys) != len(want) {
		t.Fatalf("retained keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("retained keys = %v, want %v", keys, want)
		}
	}
	if tr.Handle("r0") != nil || tr.Handle(fmt.Sprintf("r%d", extra-1)) != nil {
		t.Error("evicted run still addressable")
	}
	if tr.Handle("live") == nil {
		t.Error("active run evicted")
	}
	live.Finish()
	if active, completed := tr.Counts(); active != 0 || completed != uint64(n)+1 {
		t.Fatalf("Counts() after final Finish = (%d, %d), want (0, %d)", active, completed, n+1)
	}
}

// TestTrackerDoubleFinish: repeated Finish calls must not double-count or
// underflow the active counter.
func TestTrackerDoubleFinish(t *testing.T) {
	tr := NewRunTracker()
	h := tr.Start("a", nil)
	h.Finish()
	h.Finish()
	if active, completed := tr.Counts(); active != 0 || completed != 1 {
		t.Fatalf("Counts() = (%d, %d), want (0, 1)", active, completed)
	}
	b := tr.Start("b", nil)
	if active, _ := tr.Counts(); active != 1 {
		t.Fatalf("active = %d after new Start, want 1", active)
	}
	b.Finish()
	if active, completed := tr.Counts(); active != 0 || completed != 2 {
		t.Fatalf("Counts() = (%d, %d), want (0, 2)", active, completed)
	}
}

// TestTrackerDefaultRetentionBounded: the zero-config tracker must not grow
// without bound as a long-lived server registers runs.
func TestTrackerDefaultRetentionBounded(t *testing.T) {
	tr := NewRunTracker()
	for i := 0; i < DefaultCompletedRetention*2; i++ {
		tr.Start(fmt.Sprintf("r%d", i), nil).Finish()
	}
	if got := len(tr.Statuses()); got != DefaultCompletedRetention {
		t.Fatalf("default tracker retains %d completed runs, want %d", got, DefaultCompletedRetention)
	}
}

// BenchmarkTrackerOverhead measures the tracker's cost (DESIGN
// "Observability v2" budgets it at < 1 % under active scraping): each
// iteration runs one small machine, plain; observed through a RunHandle fed
// by the progress callback; or observed while another goroutine reads
// Statuses in a loop for the whole run. Compare the sub-benchmarks' ns/op
// across alternating runs.
func BenchmarkTrackerOverhead(b *testing.B) {
	run := func(b *testing.B, observe, scrape bool) {
		for i := 0; i < b.N; i++ {
			m, err := system.New(testConfig(), testSpec())
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if observe {
				tracker := NewRunTracker()
				h := tracker.Start("NOMAD/ts", nil)
				reg := m.Metrics()
				m.SetProgress(func(p system.Progress) { h.Observe(p, reg) })
				if scrape {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
								tracker.Statuses()
							}
						}
					}()
				}
			}
			_, err = m.Run()
			close(stop)
			wg.Wait()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false, false) })
	b.Run("observed", func(b *testing.B) { run(b, true, false) })
	b.Run("scraped", func(b *testing.B) { run(b, true, true) })
}
