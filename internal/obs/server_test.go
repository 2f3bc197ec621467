package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nomad/internal/metrics"
	"nomad/internal/system"
)

// observedConfig enables every capture surface so the byte-identity test
// covers Snapshot, Timeline, and Perfetto output at once.
func observedConfig() system.Config {
	cfg := testConfig()
	cfg.Timeline = true
	cfg.Interval = 10_000
	cfg.TraceDepth = 1 << 12
	cfg.SpanDepth = 1 << 10
	return cfg
}

// runMachine runs one machine, optionally observed through a tracker
// handle, and returns its snapshot and Perfetto bytes.
func runMachine(t *testing.T, h *RunHandle) (snapJSON, perfetto []byte) {
	t.Helper()
	m, err := system.New(observedConfig(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if h != nil {
		reg := m.Metrics()
		m.SetProgress(func(p system.Progress) { h.Observe(p, reg) })
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	snapJSON, err = json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := metrics.WritePerfetto(&buf, metrics.PerfettoRun{Name: "obs/ts", Dump: res.Trace}); err != nil {
		t.Fatal(err)
	}
	return snapJSON, buf.Bytes()
}

// TestSnapshotByteIdenticalWithServer is the non-perturbation contract: a
// run observed by the tracker — with an introspection server being scraped
// and an SSE subscriber attached while it runs — produces byte-identical
// Snapshot, Timeline, and Perfetto output to an unobserved run.
func TestSnapshotByteIdenticalWithServer(t *testing.T) {
	plainSnap, plainTrace := runMachine(t, nil)

	tracker := NewRunTracker()
	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()
	h := tracker.Start("obs/ts", NewManifest(observedConfig(), testSpec()))

	// Scrape /metrics and /runs continuously while the observed run is in
	// flight, and hold an SSE timeline subscription open.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			for _, p := range []string{"/metrics", "/runs"} {
				resp, err := http.Get(srv.URL + p)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/runs/obs/ts/timeline", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	obsSnap, obsTrace := runMachine(t, h)
	h.Finish()
	cancel()
	wg.Wait()

	if !bytes.Equal(plainSnap, obsSnap) {
		t.Error("snapshot JSON differs between observed and unobserved runs")
	}
	if !bytes.Equal(plainTrace, obsTrace) {
		t.Error("Perfetto bytes differ between observed and unobserved runs")
	}
}

// TestMetricsEndpoint checks the exposition is well-formed and carries the
// tracker and registry families.
func TestMetricsEndpoint(t *testing.T) {
	tracker := NewRunTracker()
	h := tracker.Start("NOMAD/ts", NewManifest(observedConfig(), testSpec()))
	m, err := system.New(observedConfig(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	reg := m.Metrics()
	m.SetProgress(func(p system.Progress) { h.Observe(p, reg) })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if err := ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"nomad_runs_active", "nomad_runs_completed_total",
		`nomad_run_progress{run="NOMAD/ts",phase="roi"} 1`,
		`nomad_sim_counter_total{run="NOMAD/ts",metric="core.0.instructions"}`,
		"nomad_sim_histogram_bucket", `le="+Inf"`,
		"nomad_host_heap_inuse_bytes",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// After Finish the run's snapshot is released: the exposition stays
	// valid and the status line survives.
	h.Finish()
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid after finish: %v", err)
	}
	if !strings.Contains(string(body), "nomad_runs_completed_total 1") {
		t.Error("completed count not exported")
	}
}

// TestRunsEndpoint checks the /runs JSON shape, key suffixing, and the
// done flag.
func TestRunsEndpoint(t *testing.T) {
	tracker := NewRunTracker()
	man := NewManifest(testConfig(), testSpec())
	h1 := tracker.Start("a", man)
	h2 := tracker.Start("a", man) // duplicate key gets a suffix
	h1.Observe(system.Progress{Phase: "roi", Cycle: 500, Done: 50, Target: 100}, nil)
	h2.Finish()

	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statuses []RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("got %d statuses, want 2", len(statuses))
	}
	if statuses[0].Key != "a" || statuses[1].Key != "a#2" {
		t.Errorf("keys = %q, %q; want a, a#2", statuses[0].Key, statuses[1].Key)
	}
	if statuses[0].Phase != "roi" || statuses[0].Fraction != 0.5 || statuses[0].Cycle != 500 {
		t.Errorf("status[0] = %+v", statuses[0])
	}
	if statuses[0].Address != man.Address {
		t.Errorf("address %q, want %q", statuses[0].Address, man.Address)
	}
	if !statuses[1].Done || statuses[0].Done {
		t.Errorf("done flags = %v, %v", statuses[0].Done, statuses[1].Done)
	}
}

// TestTimelineSSE drives a handle manually and reads the event stream.
func TestTimelineSSE(t *testing.T) {
	tracker := NewRunTracker()
	h := tracker.Start("x", nil)
	reg := metrics.NewRegistry()
	n := 0.0
	reg.IntervalFunc("t.v", nil, func(uint64) float64 { n++; return n })
	reg.BeginTimeline(0, 100)
	reg.SampleInterval(100)
	h.Observe(system.Progress{Phase: "roi", Cycle: 100, Done: 1, Target: 4}, reg)

	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/runs/x/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	rows := make(chan TimelineRow, 16)
	go func() {
		defer close(rows)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var row TimelineRow
			if json.Unmarshal([]byte(data), &row) == nil {
				rows <- row
			}
		}
	}()

	read := func() TimelineRow {
		select {
		case row, ok := <-rows:
			if !ok {
				t.Fatal("stream closed early")
			}
			return row
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for SSE row")
		}
		panic("unreachable")
	}
	if row := read(); row.Cycle != 100 || row.Values["t.v"] != 1 {
		t.Fatalf("history row = %+v", row)
	}
	// A later snapshot adds a live row. The second Observe must be outside
	// the throttle window, so force it by backdating the last snapshot.
	h.mu.Lock()
	h.lastSnap = h.lastSnap.Add(-2 * snapshotMinPeriod)
	h.mu.Unlock()
	reg.SampleInterval(200)
	h.Observe(system.Progress{Phase: "roi", Cycle: 200, Done: 2, Target: 4}, reg)
	if row := read(); row.Cycle != 200 || row.Values["t.v"] != 2 {
		t.Fatalf("live row = %+v", row)
	}
	h.Finish()
	if _, ok := <-rows; ok {
		// Draining: the stream must end after Finish.
		for range rows {
		}
	}

	// Unknown run: 404.
	resp2, err := http.Get(srv.URL + "/runs/nope/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run status = %d, want 404", resp2.StatusCode)
	}
}

// TestNilSafety: a nil tracker and its nil handles are inert.
func TestNilSafety(t *testing.T) {
	var tr *RunTracker
	h := tr.Start("k", nil)
	if h != nil {
		t.Fatal("nil tracker returned non-nil handle")
	}
	h.Observe(system.Progress{Phase: "roi", Done: 1, Target: 2}, nil)
	h.Finish()
	if s := h.Status(); s.Key != "" {
		t.Errorf("nil handle status = %+v", s)
	}
	if got := tr.Statuses(); got != nil {
		t.Errorf("nil tracker statuses = %v", got)
	}
	if a, c := tr.Counts(); a != 0 || c != 0 {
		t.Errorf("nil tracker counts = %d, %d", a, c)
	}
	_, live, cancel := h.Subscribe()
	if _, ok := <-live; ok {
		t.Error("nil handle subscription not closed")
	}
	cancel()
}

// TestValidateExposition exercises the checker on handwritten documents.
func TestValidateExposition(t *testing.T) {
	good := `# HELP x_total Things.
# TYPE x_total counter
x_total 3
# HELP lat Latency.
# TYPE lat histogram
lat_bucket{le="1"} 2
lat_bucket{run="a/b",le="+Inf"} 4
lat_sum 9
lat_count 4
# HELP g A gauge.
# TYPE g gauge
g{name="hbm.gbs"} 1.5e+03
`
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("good document rejected: %v", err)
	}
	bad := []struct{ name, doc string }{
		{"garbage line", "# TYPE x gauge\nx 1\nnot a metric\n"},
		{"undeclared family", "y_total 3\n"},
		{"bad type", "# TYPE x banana\nx 1\n"},
		{"no samples", "# HELP x X.\n# TYPE x gauge\n"},
		{"unquoted label", "# TYPE x gauge\nx{a=b} 1\n"},
		{"empty document", ""},
		{"blank lines only", "\n\n\n"},
		{"duplicate TYPE", "# TYPE x gauge\nx 1\n# TYPE x gauge\nx 2\n"},
		{"duplicate TYPE different kind", "# TYPE x gauge\nx 1\n# TYPE x counter\nx 2\n"},
		{"histogram missing +Inf", "# TYPE lat histogram\nlat_bucket{le=\"1\"} 2\nlat_sum 9\nlat_count 4\n"},
	}
	for _, b := range bad {
		if err := ValidateExposition(strings.NewReader(b.doc)); err == nil {
			t.Errorf("%s: accepted", b.name)
		}
	}

	// A histogram family that emits no buckets at all (sum/count only) is
	// legal; the +Inf requirement applies only once buckets appear.
	noBuckets := "# TYPE lat histogram\nlat_sum 9\nlat_count 4\n"
	if err := ValidateExposition(strings.NewReader(noBuckets)); err != nil {
		t.Errorf("bucketless histogram rejected: %v", err)
	}
}

// digestRegistry builds a registry with an active digest chain and one
// sampled window ending at cycle 100.
func digestRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("d.c", new(uint64))
	reg.BeginDigests(0, 100)
	reg.SampleInterval(100)
	return reg
}

// TestDigestsEndpoint checks /runs/{key}/digests serves the latest
// snapshot's chain and 404s when there is none.
func TestDigestsEndpoint(t *testing.T) {
	tracker := NewRunTracker()
	h := tracker.Start("x/y", nil)
	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Unknown run and no-snapshot-yet run both 404.
	if code, _ := get("/runs/nope/digests"); code != http.StatusNotFound {
		t.Errorf("unknown run status = %d, want 404", code)
	}
	if code, _ := get("/runs/x/y/digests"); code != http.StatusNotFound {
		t.Errorf("no-snapshot status = %d, want 404", code)
	}

	// A run publishing digest-less snapshots still 404s.
	plain := metrics.NewRegistry()
	plain.Counter("p.c", new(uint64))
	h.Observe(system.Progress{Phase: "roi", Cycle: 100, Done: 1, Target: 4}, plain)
	if code, _ := get("/runs/x/y/digests"); code != http.StatusNotFound {
		t.Errorf("digest-less snapshot status = %d, want 404", code)
	}

	// With digests enabled the chain comes back as JSON.
	h2 := tracker.Start("x/z", nil)
	h2.Observe(system.Progress{Phase: "roi", Cycle: 100, Done: 1, Target: 4}, digestRegistry(t))
	code, body := get("/runs/x/z/digests")
	if code != http.StatusOK {
		t.Fatalf("digests status = %d, want 200: %s", code, body)
	}
	var dc metrics.DigestChain
	if err := json.Unmarshal(body, &dc); err != nil {
		t.Fatalf("digests response not a chain: %v\n%s", err, body)
	}
	if dc.Windows() != 1 || dc.Interval != 100 || dc.Final() == "" {
		t.Errorf("chain = %+v", dc)
	}
}

// TestTimelineKeepalive shrinks the keepalive period and checks an idle
// stream carries ": keepalive" comment frames.
func TestTimelineKeepalive(t *testing.T) {
	saved := sseKeepalivePeriod
	sseKeepalivePeriod = 20 * time.Millisecond
	defer func() { sseKeepalivePeriod = saved }()

	tracker := NewRunTracker()
	h := tracker.Start("x", nil)
	defer h.Finish()
	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs/x/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before any keepalive")
			}
			if line == ": keepalive" {
				return
			}
		case <-deadline:
			t.Fatal("no keepalive frame within 5s")
		}
	}
}

// TestTimelineClientDisconnect checks a dropped client promptly detaches
// its subscription instead of leaking until the run finishes.
func TestTimelineClientDisconnect(t *testing.T) {
	tracker := NewRunTracker()
	h := tracker.Start("x", nil)
	defer h.Finish()
	srv := httptest.NewServer(NewServer(tracker).Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/runs/x/timeline", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	subs := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.subs)
	}
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for subs() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d subscriptions, want %d", what, subs(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1, "after connect")
	cancel()
	waitFor(0, "after disconnect")
}
