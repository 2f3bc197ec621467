package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches ties BENCHMARK.json, which tells a runner what
// this benchmark reports, to the names, units and bounds the code uses.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" || strings.Join(b.Paths, " ") != "perfbench" ||
		b.RunSeconds != defaultSeconds {
		t.Errorf("command %q, paths %q, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestMicroBenchmarksRun(t *testing.T) {
	for _, m := range micros {
		body, err := m.setup(2, 64)
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		body()
		body()
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "nomad-cact", "--seconds", "0"},
		{"--workload", "nomad-cact", "--trace", "2"},
		{"--workload", "nomad-cact", "extra"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

// TestEndToEndRun runs the smallest measurement, three reps of one
// workload, and checks the result line a runner parses.
func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for several seconds")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nomad-lbm", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != minReps || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}
