package nomad

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"nomad/internal/harness"
)

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID    string // e.g. "table1", "fig9"
	Title string
}

// ExperimentOptions tunes experiment execution.
type ExperimentOptions struct {
	// Fast shrinks warmup/ROI for quick, lower-precision runs.
	Fast bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Verbose emits each run's summary line to Log as structured (slog
	// text) records.
	Verbose bool
	// Log receives verbose progress output. Nil discards it, except under
	// RunExperiment, which defaults Log to its output writer.
	Log io.Writer
	// Telemetry enables capture in every underlying run, with the meaning
	// it has in Config and the same bounds, which RunExperimentResult
	// checks before any run starts.
	Telemetry
}

// Experiments lists every reproducible table and figure.
func Experiments() []ExperimentInfo {
	all := harness.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// ExperimentResult is the structured output of one experiment: the sections
// the paper artifact prints, plus every underlying simulation Result keyed by
// run key. WriteText renders the traditional text form.
type ExperimentResult struct {
	ID       string
	Title    string
	Sections []ExperimentSection
	// Runs holds the per-simulation results the sections were derived
	// from, each carrying its full metrics snapshot. Analysis-only
	// experiments leave it empty.
	Runs map[string]*Result
	// Warnings flags data-quality issues in the underlying runs, currently
	// trace/span ring drops; empty means every capture is complete.
	Warnings []string
	// RunSeconds maps each run key to its host-side wall-clock duration.
	// Non-deterministic by nature; the per-run Results stay byte-identical
	// across same-seed invocations.
	RunSeconds map[string]float64

	rep *harness.Report
}

// ExperimentSection is one block of an experiment's output: commentary lines
// followed by an optional table.
type ExperimentSection struct {
	Notes []string
	Table *ExperimentTable
}

// ExperimentTable is one table of an experiment's output, already formatted
// to the precision the text rendering prints.
type ExperimentTable struct {
	Header []string
	Rows   [][]string
}

// WriteText renders the experiment in its traditional text form.
func (r *ExperimentResult) WriteText(w io.Writer) error { return r.rep.WriteText(w) }

// RunExperimentResult regenerates one paper artifact and returns it in
// structured form. Cancelling ctx stops queued simulations before they start
// and in-flight ones within 8192 simulated cycles;
// errors.Is(err, context.Canceled) then holds.
func RunExperimentResult(ctx context.Context, id string, opts ExperimentOptions) (*ExperimentResult, error) {
	e, ok := harness.Get(id)
	if !ok {
		return nil, fmt.Errorf("nomad: unknown experiment %q", id)
	}
	if err := opts.Telemetry.Validate(); err != nil {
		return nil, &Error{Op: "validate", Err: err}
	}
	var logger *slog.Logger
	if opts.Log != nil {
		logger = slog.New(slog.NewTextHandler(opts.Log, nil))
	}
	rep, err := e.Run(ctx, harness.Options{
		Fast:        opts.Fast,
		Parallelism: opts.Parallelism,
		Verbose:     opts.Verbose,
		Logger:      logger,
		Telemetry:   opts.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return fromReport(rep), nil
}

// RunExperiment regenerates one paper artifact, writing its text rendering
// to w. It is retained for compatibility; new code should prefer
// RunExperimentResult, which adds cancellation and structured access to the
// rows and the underlying runs.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) error {
	if opts.Verbose && opts.Log == nil {
		opts.Log = w
	}
	res, err := RunExperimentResult(context.Background(), id, opts)
	if err != nil {
		return err
	}
	return res.WriteText(w)
}

func fromReport(rep *harness.Report) *ExperimentResult {
	out := &ExperimentResult{
		ID: rep.ID, Title: rep.Title, Warnings: rep.Warnings,
		RunSeconds: rep.RunSeconds, rep: rep,
	}
	for _, sec := range rep.Sections {
		s := ExperimentSection{Notes: sec.Notes}
		if sec.Table != nil {
			s.Table = &ExperimentTable{Header: sec.Table.Header, Rows: sec.Table.Rows}
		}
		out.Sections = append(out.Sections, s)
	}
	if len(rep.Runs) > 0 {
		out.Runs = make(map[string]*Result, len(rep.Runs))
		for k, r := range rep.Runs {
			res := fromInternal(r.Result)
			res.manifest = r.Manifest
			out.Runs[k] = res
		}
	}
	return out
}
