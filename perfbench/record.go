package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// schema names the layout of a record. A record of another schema is
// never compared against: the metrics are not the same.
const schema = "nomad-bench/2"

// record is everything one invocation measured, with every sample, so a
// later run can be compared against it with its spread.
type record struct {
	Schema    string             `json:"schema"`
	Date      string             `json:"date"`
	Host      string             `json:"host"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]summary `json:"metrics"`
}

func newRecord(workload string, seed uint64, trace bool, o *outcome, defs []metricDef) record {
	r := record{
		Schema:    schema,
		Date:      time.Now().UTC().Format("2006-01-02"),
		Host:      fmt.Sprintf("%s/%s %d CPUs %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Workload:  workload,
		Seed:      seed,
		Trace:     trace,
		Attempted: o.attempted,
		Failed:    o.failed,
		Digest:    o.digest,
		Metrics:   map[string]summary{},
	}
	for _, d := range defs {
		s := summarize(d.unit, o.samples[d.name])
		if v, ok := o.values[d.name]; ok {
			s.Value = v
		}
		r.Metrics[d.name] = s
	}
	return r
}

// appendRecord adds rec as one line to the file at path, creating it.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// compareWith finds the latest record in the file at path for cur's
// workload and mode and prints, per metric, the baseline and current
// values and the verdict. It reports whether any end-to-end metric
// regressed. A file holding no such record, such as one of an older
// schema, is not an error: there is nothing to compare, and it says so.
func compareWith(path string, cur record, defs []metricDef, w io.Writer) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var base *record
	var other string
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case r.Schema != schema:
			other = r.Schema
		case r.Workload == cur.Workload && r.Trace == cur.Trace:
			base = &r
		}
	}
	if base == nil {
		note := ""
		if other != "" {
			note = fmt.Sprintf(" (it holds schema %q)", other)
		}
		fmt.Fprintf(w, "compare: %s has no %s record for %s%s; nothing to compare\n", path, schema, cur.Workload, note)
		return false, nil
	}
	fmt.Fprintf(w, "compare with %s (%s, seed %d, %s):\n", path, base.Date, base.Seed, base.Host)
	regressed := false
	for _, d := range defs {
		b, okB := base.Metrics[d.name]
		c, okC := cur.Metrics[d.name]
		if !okB || !okC || b.N == 0 || c.N == 0 {
			fmt.Fprintf(w, "  %-28s only in one of the two runs\n", d.name)
			continue
		}
		v := verdict(b, c, d)
		if v == "regression" {
			regressed = true
		}
		delta := 0.0
		if b.Value != 0 {
			delta = 100 * (c.Value - b.Value) / b.Value
		}
		fmt.Fprintf(w, "  %-28s %12.6g -> %-12.6g %+7.2f%%  %s\n", d.name, b.Value, c.Value, delta, v)
	}
	if base.Seed == cur.Seed && base.Digest != cur.Digest {
		fmt.Fprintf(w, "  digest %s -> %s: the simulated behaviour changed\n", base.Digest, cur.Digest)
	}
	return regressed, nil
}

// verdict compares one metric. An end-to-end metric regressed only when
// its value is worse than the baseline's by more than its bound and the
// whole current interquartile range lies on the worse side of the
// baseline's: a shift smaller than the noise is not flagged. When the
// value is past the bound but the ranges overlap, the result is
// unresolved. Per-layer metrics have no bound and get no verdict.
func verdict(base, cur summary, d metricDef) string {
	if d.bound == 0 {
		return ""
	}
	worse := cur.Value - base.Value
	separated := cur.Q1 > base.Q3
	if d.better == "higher" {
		worse = -worse
		separated = cur.Q3 < base.Q1
	}
	switch {
	case worse <= d.bound*base.Value:
		return "ok"
	case separated:
		return "regression"
	default:
		return "unresolved: worse by more than the bound, within the noise"
	}
}
