package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// sseKeepalivePeriod spaces the ": keepalive" comment frames an idle SSE
// stream emits so proxies and clients can tell a quiet run from a dead
// connection. A variable (not const) so tests can shrink it.
var sseKeepalivePeriod = 15 * time.Second

// Server is the opt-in HTTP introspection endpoint (-http on the CLIs):
//
//	/metrics              Prometheus text exposition (registry + host stats)
//	/runs                 JSON statuses of tracked runs
//	/runs/{key}/timeline  SSE stream of the run's interval timeline rows
//	/runs/{key}/digests   JSON interval digest chain of the latest snapshot
//	/debug/pprof/...      standard net/http/pprof handlers
//
// It reads only the tracker's published copies, never live simulation
// state, so serving cannot perturb a run.
type Server struct {
	tracker *RunTracker
	mux     *http.ServeMux
}

// NewServer builds a server over the tracker.
func NewServer(t *RunTracker) *Server {
	s := &Server{tracker: t, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/runs", s.runs)
	// Run keys contain slashes (e.g. "NOMAD/cact"), so the per-run routes
	// are parsed by hand rather than with a {key} pattern (which would stop
	// at the first slash).
	s.mux.HandleFunc("/runs/", s.runSub)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.index)
	return s
}

// Handler returns the server's route table (tests, embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":6060", "127.0.0.1:0", ...) and serves in a
// background goroutine, returning the bound address. Serve errors after a
// successful bind are reported through errf (nil discards them).
func (s *Server) Start(addr string, errf func(error)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := http.Serve(ln, s.mux); err != nil && errf != nil {
			errf(err)
		}
	}()
	return ln.Addr(), nil
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "nomad introspection server\n\n"+
		"/metrics              Prometheus text exposition\n"+
		"/runs                 run statuses (JSON)\n"+
		"/runs/{key}/timeline  live interval timeline (SSE)\n"+
		"/runs/{key}/digests   interval digest chain (JSON)\n"+
		"/debug/pprof/         Go profiling\n")
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writeExposition(w, s.tracker)
}

func (s *Server) runs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	statuses := s.tracker.Statuses()
	if statuses == nil {
		statuses = []RunStatus{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(statuses)
}

// runSub dispatches the per-run routes: /runs/{key}/timeline and
// /runs/{key}/digests, where {key} itself contains slashes.
func (s *Server) runSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/runs/")
	if key, ok := strings.CutSuffix(rest, "/timeline"); ok && key != "" {
		s.timeline(w, r, key)
		return
	}
	if key, ok := strings.CutSuffix(rest, "/digests"); ok && key != "" {
		s.digests(w, r, key)
		return
	}
	http.NotFound(w, r)
}

// digests serves /runs/{key}/digests: the run's interval digest chain as
// JSON, from the latest published snapshot. 404 until the run has published
// a snapshot carrying digests (digest capture off, or no tick yet).
func (s *Server) digests(w http.ResponseWriter, r *http.Request, key string) {
	h := s.tracker.Handle(key)
	if h == nil {
		http.Error(w, fmt.Sprintf("unknown run %q", key), http.StatusNotFound)
		return
	}
	snap := h.latest()
	if snap == nil || snap.Digests == nil {
		http.Error(w, fmt.Sprintf("run %q has no digest chain (enable -digests, or wait for the first interval)", key),
			http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap.Digests)
}

// timeline serves /runs/{key}/timeline as Server-Sent Events: one
// "data: {json TimelineRow}" event per interval window, history first, then
// live rows until the run finishes or the client disconnects. Idle streams
// carry ": keepalive" comment frames every sseKeepalivePeriod.
func (s *Server) timeline(w http.ResponseWriter, r *http.Request, key string) {
	h := s.tracker.Handle(key)
	if h == nil {
		http.Error(w, fmt.Sprintf("unknown run %q", key), http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	history, live, cancel := h.Subscribe()
	defer cancel()
	emit := func(row TimelineRow) bool {
		data, err := json.Marshal(row)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, row := range history {
		if r.Context().Err() != nil {
			return
		}
		if !emit(row) {
			return
		}
	}
	keepalive := time.NewTicker(sseKeepalivePeriod)
	defer keepalive.Stop()
	for {
		select {
		case row, ok := <-live:
			if !ok {
				return
			}
			if !emit(row) {
				return
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
