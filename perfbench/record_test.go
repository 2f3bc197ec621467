package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "ns_per_inst", unit: "ns", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", unit: "1/s", better: "higher", bound: 0.10}
	layer := metricDef{name: "cache.self_pct", unit: "%", better: "lower"}
	s := func(q1, m, q3 float64) summary { return summary{Q1: q1, Value: m, Median: m, Q3: q3, N: 7} }
	cases := []struct {
		name      string
		d         metricDef
		base, cur summary
		want      string
	}{
		{"unchanged", lower, s(95, 100, 105), s(96, 101, 104), "ok"},
		{"better", lower, s(95, 100, 105), s(70, 75, 80), "ok"},
		{"worse within bound", lower, s(95, 100, 105), s(105, 109, 112), "ok"},
		{"worse past bound, ranges apart", lower, s(95, 100, 105), s(112, 120, 125), "regression"},
		{"worse past bound, ranges overlap", lower, s(95, 100, 125), s(100, 120, 140), "unresolved"},
		{"higher better: drop past bound", higher, s(95, 100, 105), s(80, 85, 90), "regression"},
		{"higher better: rise", higher, s(95, 100, 105), s(130, 140, 150), "ok"},
		{"no bound", layer, s(10, 20, 30), s(50, 60, 70), ""},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.cur, c.d); !strings.HasPrefix(got, c.want) || (c.want == "" && got != "") {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func testRecord(workload string, nsPerInst ...float64) record {
	o := &outcome{attempted: len(nsPerInst), digest: "d1", samples: map[string][]float64{
		"ns_per_inst":  nsPerInst,
		"setup_s":      {0.001, 0.001, 0.001},
		"live_heap_mb": {20, 20, 20},
	}}
	return newRecord(workload, 1, false, o, endToEnd)
}

func TestRecordRoundTripAndCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.jsonl")
	if err := appendRecord(path, testRecord("tid-mcf", 500, 510, 490)); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(path, testRecord("nomad-cact", 200, 205, 195, 202, 198)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareWith(path, testRecord("nomad-cact", 201, 199, 203, 197, 200), endToEnd, &out)
	if err != nil || regressed {
		t.Fatalf("same numbers: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compareWith(path, testRecord("nomad-cact", 260, 255, 265, 258, 262), endToEnd, &out)
	if err != nil || !regressed {
		t.Fatalf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("report does not name the regression:\n%s", out.String())
	}
}

func TestCompareSkipsOtherSchemas(t *testing.T) {
	dir := t.TempDir()
	// The layout of the old cmd/bench files: one indented object.
	v1 := filepath.Join(dir, "BENCH_2026-08-08.json")
	if err := os.WriteFile(v1, []byte("{\n  \"schema\": \"nomad-bench/1\",\n  \"e2e\": []\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareWith(v1, testRecord("nomad-cact", 1000, 1000, 1000), endToEnd, &out)
	if err != nil || regressed {
		t.Fatalf("old schema: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "nomad-bench/1") {
		t.Errorf("note does not name the schema it found:\n%s", out.String())
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareWith(bad, testRecord("nomad-cact", 1), endToEnd, &out); err == nil {
		t.Error("malformed baseline: no error")
	}
	if _, err := compareWith(filepath.Join(dir, "missing.json"), testRecord("nomad-cact", 1), endToEnd, &out); err == nil {
		t.Error("missing baseline: no error")
	}
}
