package harness

import (
	"fmt"
	"io"
	"sort"

	"nomad/internal/obs"
)

// Report is the structured output of one experiment: the sections the text
// rendering prints, plus every underlying simulation Result (each carrying
// its full metrics snapshot) keyed by run key.
type Report struct {
	ID       string    `json:"id"`
	Title    string    `json:"title"`
	Sections []Section `json:"sections"`
	// Runs holds the raw per-simulation results the sections were derived
	// from. Analysis-only experiments (replacement) leave it empty.
	Runs Results `json:"runs,omitempty"`
	// Warnings flags data-quality issues in the underlying runs — currently
	// trace/span ring drops (the capture lost its oldest entries). Sorted by
	// run key; empty means every capture is complete.
	Warnings []string `json:"warnings,omitempty"`
	// Manifests maps each run key to its content-addressed manifest
	// (config + workload + build stamp; see obs.Manifest). Host-side
	// metadata: it rides next to the runs rather than inside them so
	// Report.Runs stays exactly the deterministic simulation output.
	Manifests map[string]*obs.Manifest `json:"manifests,omitempty"`
	// RunSeconds maps each run key to its wall-clock duration. Host-side
	// and non-deterministic by nature — the one Report field that differs
	// between two same-seed invocations.
	RunSeconds map[string]float64 `json:"run_seconds,omitempty"`
}

// Section is one block of a report: commentary lines followed by an optional
// table.
type Section struct {
	Notes []string `json:"notes,omitempty"`
	Table *Table   `json:"table,omitempty"`
}

// newReport starts a report for the registered experiment id, lifting each
// run's host-side metadata (manifest, wall-clock duration) into the report
// maps.
func newReport(id string, res Results) *Report {
	rep := &Report{ID: id, Title: registry[id].Title, Runs: res, Warnings: DropWarnings(res)}
	if len(res) > 0 {
		rep.Manifests = make(map[string]*obs.Manifest, len(res))
		rep.RunSeconds = make(map[string]float64, len(res))
		for k, r := range res {
			if r == nil {
				continue
			}
			rep.Manifests[k] = r.Manifest
			rep.RunSeconds[k] = r.WallSeconds
		}
	}
	return rep
}

// DropWarnings scans run snapshots for ring-buffer overwrites: a dropped
// event or span means the exported trace silently lost its oldest entries,
// which matters for any analysis that assumes full coverage. The lines are
// sorted and each names its run's key.
func DropWarnings(res Results) []string {
	var warns []string
	for k, r := range res {
		if r == nil || r.Metrics == nil || r.Metrics.Trace == nil {
			continue
		}
		t := r.Metrics.Trace
		if t.EventsDropped > 0 {
			warns = append(warns, fmt.Sprintf(
				"%s: event ring dropped %d of %d events; raise trace depth for full coverage",
				k, t.EventsDropped, t.EventsDropped+t.Events))
		}
		if t.SpansDropped > 0 {
			warns = append(warns, fmt.Sprintf(
				"%s: span ring dropped %d of %d spans; raise span depth or sampling period",
				k, t.SpansDropped, t.SpansDropped+t.Spans))
		}
	}
	sort.Strings(warns)
	return warns
}

// add appends a section built from notes and an optional table.
func (r *Report) add(t *Table, notes ...string) {
	r.Sections = append(r.Sections, Section{Notes: notes, Table: t})
}

// WriteText renders the report in the traditional text form: sections
// separated by blank lines, each as its commentary, a blank line, then the
// aligned table.
func (r *Report) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	for i, sec := range r.Sections {
		if i > 0 {
			fmt.Fprintln(ew)
		}
		for _, n := range sec.Notes {
			fmt.Fprintln(ew, n)
		}
		if sec.Table != nil {
			if len(sec.Notes) > 0 {
				fmt.Fprintln(ew)
			}
			sec.Table.Write(ew)
		}
	}
	return ew.err
}

// errWriter latches the first write error so rendering code can print
// unconditionally.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
		return len(p), nil
	}
	return n, nil
}
