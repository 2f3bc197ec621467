package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestStatusesConcurrentWithRuns: Statuses reads handles under the
// tracker's mutex while runs start, publish progress and finish on other
// goroutines, past the retention bound so evictions happen too. Run it
// under -race; a lock-order inversion would hang it.
func TestStatusesConcurrentWithRuns(t *testing.T) {
	tr := NewRunTracker()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range tr.Statuses() {
					if s.Key == "" {
						t.Error("status without a key")
					}
				}
			}
		}
	}()
	var runs sync.WaitGroup
	for w := 0; w < 4; w++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			for i := 0; i < DefaultCompletedRetention; i++ {
				h := tr.Start(fmt.Sprintf("w%d/%d", w, i), nil)
				h.Observe(system.Progress{Phase: "roi", Cycle: uint64(i), Done: 1, Target: 2}, nil)
				h.Finish()
			}
		}()
	}
	runs.Wait()
	close(stop)
	reader.Wait()
	if active, completed := tr.Counts(); active != 0 || completed != 4*DefaultCompletedRetention {
		t.Fatalf("Counts() = (%d, %d), want (0, %d)", active, completed, 4*DefaultCompletedRetention)
	}
}

// BenchmarkTrackerOverhead measures the tracker's cost (DESIGN
// "Observability v2" budgets it at < 1 % under active scraping): each
// iteration runs one small machine, plain; observed through a RunHandle fed
// by the progress callback; or observed while another goroutine reads
// Statuses for the whole run, in a tight loop (scraped) or every 10 ms, a
// fast dashboard's pace (scraped-10ms). Compare the sub-benchmarks' ns/op
// across alternating runs.
func BenchmarkTrackerOverhead(b *testing.B) {
	run := func(b *testing.B, observe bool, scrape time.Duration) {
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
				if scrape >= 0 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
								tracker.Statuses()
								time.Sleep(scrape)
							}
						}
					}()
				}
			}
			_, err = m.Run()
			// A pausing reader sees stop up to one pause late; that wait
			// is not the run's.
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.StartTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false, -1) })
	b.Run("observed", func(b *testing.B) { run(b, true, -1) })
	b.Run("scraped", func(b *testing.B) { run(b, true, 0) })
	b.Run("scraped-10ms", func(b *testing.B) { run(b, true, 10*time.Millisecond) })
}
