package obs

import (
	"fmt"
	"sync"
	"time"

	"nomad/internal/metrics"
	"nomad/internal/system"
)

// snapshotMinPeriod throttles live registry snapshots: progress callbacks
// fire every interval tick (often thousands per wall second) but the server
// only needs a fresh snapshot a couple of times per second, and each
// Snapshot() allocates.
const snapshotMinPeriod = 500 * time.Millisecond

// RunTracker is the registry of in-flight (and recently finished) runs an
// introspection server reads. A nil tracker is fully usable — every method,
// and every method of the nil handles it returns, is a no-op — so call sites
// wire observation unconditionally and pay nothing when -http is off.
//
// Publishing side (Start/Observe/Finish) is called from simulation worker
// goroutines; reading side (Statuses, exposition) from HTTP handlers. The
// tracker and each handle carry their own mutex; observation never blocks on
// a slow reader.
type RunTracker struct {
	mu   sync.Mutex
	runs map[string]*RunHandle
	// order lists currently retained keys in registration order; finished
	// lists completed keys oldest-first (the eviction queue).
	order    []string
	finished []string
	// active/completed are explicit counters: completed is cumulative and
	// survives eviction, active never depends on map size.
	active    uint64
	completed uint64
}

// DefaultCompletedRetention bounds how many completed runs a tracker keeps.
// Long-lived servers register a run per simulation forever; the status
// lines (and, between Observe throttles, registry snapshots) of ancient runs
// are pure leak, so only the most recent completions stay addressable.
// Active runs are never evicted.
const DefaultCompletedRetention = 64

// NewRunTracker returns an empty tracker retaining the last
// DefaultCompletedRetention completed runs.
func NewRunTracker() *RunTracker {
	return &RunTracker{runs: map[string]*RunHandle{}}
}

// evictLocked drops the oldest completed runs beyond the retention bound.
func (t *RunTracker) evictLocked() {
	for len(t.finished) > DefaultCompletedRetention {
		key := t.finished[0]
		t.finished = t.finished[1:]
		delete(t.runs, key)
		for i, k := range t.order {
			if k == key {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
}

// Start registers a run and returns its handle. Keys repeat across batches
// (experiments reuse scheme/workload keys); repeats get a "#n" suffix so
// both stay addressable. Nil-safe: a nil tracker returns a nil handle.
func (t *RunTracker) Start(key string, man *Manifest) *RunHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := key
	for n := 2; t.runs[key] != nil; n++ {
		key = fmt.Sprintf("%s#%d", base, n)
	}
	h := &RunHandle{t: t, key: key, man: man, started: time.Now()}
	t.runs[key] = h
	t.order = append(t.order, key)
	t.active++
	return h
}

// Handle returns the handle registered under key, or nil.
func (t *RunTracker) Handle(key string) *RunHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs[key]
}

// Counts returns the number of active runs and the cumulative number of
// completed runs (including completed runs already evicted from Statuses).
func (t *RunTracker) Counts() (active, completed uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active, t.completed
}

// Statuses returns every tracked run's status in registration order. It
// reads each handle under the tracker's mutex, the one lock order in the
// package (tracker, then handle): Finish releases its handle's mutex before
// it takes the tracker's, and Observe never takes the tracker's.
func (t *RunTracker) Statuses() []RunStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunStatus, len(t.order))
	for i, k := range t.order {
		out[i] = t.runs[k].Status()
	}
	return out
}

// RunStatus is the serializable state of one tracked run (the /runs
// endpoint).
type RunStatus struct {
	Key string `json:"key"`
	// Address is the run's manifest content address.
	Address string `json:"address,omitempty"`
	Phase   string `json:"phase,omitempty"`
	// Fraction is the current phase's completion in [0,1].
	Fraction float64 `json:"fraction"`
	Cycle    uint64  `json:"cycle"`
	// CyclesPerSec is the simulated-cycle rate over the last snapshot
	// window (0 until two snapshots exist).
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	StartedUnix  int64   `json:"started_unix"`
	Done         bool    `json:"done"`
}

// TimelineRow is one interval window of a live run, streamed over SSE.
type TimelineRow struct {
	// Cycle is the window's end, relative to the ROI start.
	Cycle  uint64             `json:"cycle"`
	Values map[string]float64 `json:"values"`
}

// RunHandle publishes one run's progress to the tracker. The simulation's
// progress callback calls Observe synchronously on the sim goroutine; HTTP
// handlers read the published copies under the handle mutex. All methods
// are nil-safe.
type RunHandle struct {
	t       *RunTracker
	key     string
	man     *Manifest
	started time.Time

	mu       sync.Mutex
	phase    string
	frac     float64
	cycle    uint64
	lastSnap time.Time
	hasSnap  bool
	cps      float64
	snap     *metrics.Snapshot
	rows     []TimelineRow
	subs     []chan TimelineRow
	done     bool
}

// Key returns the (possibly suffixed) key the run is tracked under.
func (h *RunHandle) Key() string {
	if h == nil {
		return ""
	}
	return h.key
}

// Manifest returns the run's manifest.
func (h *RunHandle) Manifest() *Manifest {
	if h == nil {
		return nil
	}
	return h.man
}

// Observe publishes one progress tick. The cheap fields (phase, fraction,
// cycle) update every call; a full registry snapshot — the source for
// /metrics and timeline streaming — is taken at most once per
// snapshotMinPeriod. reg may be nil (progress only). Snapshot() only reads
// registry state, so observation cannot perturb the run.
func (h *RunHandle) Observe(p system.Progress, reg *metrics.Registry) {
	if h == nil {
		return
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.phase, h.frac, h.cycle = p.Phase, p.Fraction(), p.Cycle
	if reg == nil || (h.hasSnap && now.Sub(h.lastSnap) < snapshotMinPeriod) {
		return
	}
	if h.hasSnap {
		if dt := now.Sub(h.lastSnap).Seconds(); dt > 0 && h.snap != nil {
			prev := h.snap.Cycles
			cur := reg.Snapshot(p.Cycle)
			if cur.Cycles >= prev {
				h.cps = float64(cur.Cycles-prev) / dt
			}
			h.snap = cur
			h.lastSnap = now
			h.broadcastLocked()
			return
		}
	}
	h.snap = reg.Snapshot(p.Cycle)
	h.hasSnap = true
	h.lastSnap = now
	h.broadcastLocked()
}

// broadcastLocked forwards timeline rows the latest snapshot added beyond
// what was already streamed. Sends never block: a slow subscriber drops
// rows rather than stalling the simulation.
func (h *RunHandle) broadcastLocked() {
	tl := h.snap.Timeline
	if tl == nil {
		return
	}
	for i := len(h.rows); i < len(tl.Cycles); i++ {
		row := TimelineRow{Cycle: tl.Cycles[i], Values: make(map[string]float64, len(tl.Metrics))}
		for name, col := range tl.Metrics {
			if i < len(col) {
				row.Values[name] = col[i]
			}
		}
		h.rows = append(h.rows, row)
		for _, ch := range h.subs {
			select {
			case ch <- row:
			default:
			}
		}
	}
}

// Subscribe returns the rows streamed so far plus a channel of subsequent
// ones; the channel closes when the run finishes. cancel detaches early.
func (h *RunHandle) Subscribe() (history []TimelineRow, live <-chan TimelineRow, cancel func()) {
	if h == nil {
		ch := make(chan TimelineRow)
		close(ch)
		return nil, ch, func() {}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	history = append([]TimelineRow(nil), h.rows...)
	ch := make(chan TimelineRow, 64)
	if h.done {
		close(ch)
		return history, ch, func() {}
	}
	h.subs = append(h.subs, ch)
	return history, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, c := range h.subs {
			if c == ch {
				h.subs = append(h.subs[:i], h.subs[i+1:]...)
				close(c)
				return
			}
		}
	}
}

// Status returns the run's serializable state.
func (h *RunHandle) Status() RunStatus {
	if h == nil {
		return RunStatus{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := RunStatus{
		Key: h.key, Phase: h.phase, Fraction: h.frac, Cycle: h.cycle,
		CyclesPerSec: h.cps, StartedUnix: h.started.Unix(), Done: h.done,
	}
	if h.man != nil {
		s.Address = h.man.Address
	}
	return s
}

// latest returns the last published snapshot (nil before the first tick or
// after Finish).
func (h *RunHandle) latest() *metrics.Snapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snap
}

// Finish marks the run completed, closes subscriber streams, and releases
// the published snapshot (completed runs keep only their status line, and
// only the tracker's most recent completions stay retained at all). Call it
// whether the run succeeded or failed; repeated calls are no-ops.
func (h *RunHandle) Finish() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	for _, ch := range h.subs {
		close(ch)
	}
	h.subs = nil
	h.snap = nil
	h.rows = nil
	h.done = true
	h.mu.Unlock()
	t := h.t
	t.mu.Lock()
	t.active--
	t.completed++
	t.finished = append(t.finished, h.key)
	t.evictLocked()
	t.mu.Unlock()
}
