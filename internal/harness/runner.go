// Package harness reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's artifact name
// (table1, fig2, fig9..fig16) and produces a structured Report holding the
// same rows or series the paper plots, plus each underlying run's full
// metrics snapshot; Report.WriteText renders the traditional text form.
//
// Runs are deterministic; independent runs execute in parallel across OS
// threads (each simulation is single-threaded and self-contained).
package harness

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"nomad/internal/obs"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// Options tunes experiment execution.
type Options struct {
	// Fast shrinks warmup/ROI for quick smoke runs (benchmarks, CI); the
	// shapes survive, the precision drops.
	Fast bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Verbose emits each run's one-line summary through Logger.
	Verbose bool
	// Logger receives host-side structured output (verbose run summaries);
	// nil discards it. Host-side only: nothing logged here derives from or
	// feeds back into simulation state.
	Logger *slog.Logger
	// Telemetry enables capture in every run (see system.Telemetry); each
	// Result then carries the trace dump, timeline, digest chain or host
	// profile it asks for.
	system.Telemetry
	// Progress, when non-nil, is called once per run with its key and must
	// return a Machine.SetProgress callback (or nil). Callbacks fire on
	// worker goroutines; ProgressPrinter returns a suitable one.
	Progress func(key string) func(system.Progress)
	// Tracker, when non-nil, registers every run with the live
	// introspection tracker: manifest, progress fractions, and throttled
	// registry snapshots for the -http server. Observation is host-side
	// only and never perturbs results.
	Tracker *obs.RunTracker
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// BaseConfig returns the evaluation configuration, scaled down when fast,
// carrying the options' telemetry.
func (o Options) BaseConfig() system.Config {
	cfg := system.DefaultConfig()
	if o.Fast {
		cfg.WarmupInstructions = 300_000
		cfg.ROIInstructions = 400_000
	}
	cfg.Telemetry = o.Telemetry
	return cfg
}

// Run is one simulation request.
type Run struct {
	Key  string // unique identifier within the batch
	Cfg  system.Config
	Spec workload.Spec
}

// RunResult is one completed simulation plus its host-side run metadata.
// The embedded system.Result keeps field access (res.IPC, res.Metrics)
// working unchanged; the metadata is deliberately excluded from the
// RunResult's own JSON so Report.Runs stays exactly the deterministic
// simulation output — manifests and durations surface through the Report's
// Manifests/RunSeconds maps instead.
type RunResult struct {
	*system.Result
	// Manifest is the run's content address (config + workload + build).
	Manifest *obs.Manifest `json:"-"`
	// WallSeconds is the run's host-side wall-clock duration.
	WallSeconds float64 `json:"-"`
}

// Results maps Run.Key to the outcome.
type Results map[string]*RunResult

// Execute runs the batch on a pool of opts.workers() goroutines and returns
// results by key. Results are deterministic and independent of the worker
// count: each simulation is self-contained, and verbose summaries are
// emitted in input order after the batch completes.
//
// On failure every per-run error is collected and joined (errors.Join),
// each annotated with its run key; the returned Results still holds every
// run that completed — including the partial result of a run cancelled
// inside its measured region — so callers may render partial output.
// Cancelling ctx stops queued runs before they start and in-flight
// simulations at their next cancellation check, at most 8192 simulated
// cycles away; ctx.Err() is then reported once rather than per run.
func Execute(ctx context.Context, opts Options, runs []Run) (Results, error) {
	type outcome struct {
		res *RunResult
		err error
		// key is the run's tracker-deduplicated identity ("" when the run
		// never reached the tracker); progress callbacks, host logs, and
		// /runs all agree on it.
		key string
	}
	outcomes := make([]outcome, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain without starting work
				}
				r := runs[i]
				m, err := system.New(r.Cfg, r.Spec)
				if err != nil {
					outcomes[i] = outcome{err: err}
					continue
				}
				man := obs.NewManifest(r.Cfg, r.Spec)
				h := opts.Tracker.Start(r.Key, man) // nil-safe: nil tracker, nil handle
				// The tracker may have suffixed a repeated key (#n); from
				// here on the run's identity is the deduplicated key, so
				// progress lines, host logs, and /runs never disagree about
				// which run is which.
				key := r.Key
				if hk := h.Key(); hk != "" {
					key = hk
				}
				var userFn func(system.Progress)
				if opts.Progress != nil {
					userFn = opts.Progress(key)
				}
				if userFn != nil || h != nil {
					reg := m.Metrics()
					m.SetProgress(func(p system.Progress) {
						if userFn != nil {
							userFn(p)
						}
						h.Observe(p, reg)
					})
				}
				start := time.Now()
				res, err := m.RunContext(ctx)
				h.Finish()
				o := outcome{err: err, key: key}
				if res != nil {
					o.res = &RunResult{
						Result:      res,
						Manifest:    man,
						WallSeconds: time.Since(start).Seconds(),
					}
				}
				outcomes[i] = o
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	results := make(Results, len(runs))
	var errs []error
	for i, o := range outcomes {
		r := runs[i]
		logKey := o.key
		if logKey == "" {
			logKey = r.Key
		}
		// A run can carry both a result and an error (cancelled mid-ROI):
		// keep the partial result as documented, and report the error.
		if o.res != nil {
			results[r.Key] = o.res
			if opts.Verbose && opts.Logger != nil && o.err == nil {
				opts.Logger.Info("run complete", "run", logKey,
					"summary", o.res.Result.String(),
					"wall_seconds", o.res.WallSeconds,
					"manifest", o.res.Manifest.Address)
			}
		}
		if o.err != nil {
			if !errors.Is(o.err, context.Canceled) && !errors.Is(o.err, context.DeadlineExceeded) {
				errs = append(errs, fmt.Errorf("run %q: %w", logKey, o.err))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return results, fmt.Errorf("harness: %w", errors.Join(errs...))
	}
	return results, nil
}

// key builds a batch key from parts.
func key(parts ...interface{}) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(p)
	}
	return s
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, opts Options) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in a stable order.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}
