package main

import (
	"os"
	"path/filepath"
	"testing"

	"nomad/internal/diag"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// shapeDocs are the accepted file layouts, each holding 1000 cycles and
// counter x = 5.
var shapeDocs = []struct{ name, doc string }{
	{"nomadsim document", `{"result": {"Scheme": "TDC", "Metrics": {"cycles": 1000, "counters": {"x": 5}}}, "manifest": {}}`},
	{"bare system.Result", `{"Scheme": "TDC", "Metrics": {"cycles": 1000, "counters": {"x": 5}}}`},
	{"bare snapshot", `{"cycles": 1000, "counters": {"x": 5}}`},
	{"bare snapshot with captures", `{"cycles": 1000, "counters": {"x": 5},
		"timeline": {"interval": 500, "cycles": [500, 1000], "metrics": {"sim.ipc": [1.5, 2]}},
		"digests": {"interval": 500, "cycles": [500, 1000], "digests": ["00000000000000aa", "00000000000000bb"]}}`},
}

// rejectDocs are documents the loader must refuse.
var rejectDocs = []struct{ name, doc string }{
	{"not json", "nope"},
	{"no snapshot", `{"something": "else"}`},
	{"short timeline column", `{"cycles": 1000, "counters": {}, "timeline": {"cycles": [500, 1000], "metrics": {"sim.ipc": [1.5]}}}`},
	{"digests without cycles", `{"cycles": 1000, "counters": {}, "digests": {"cycles": [500], "digests": ["00000000000000aa", "00000000000000bb"]}}`},
}

// TestLoadSnapshotShapes pins the accepted file layouts.
func TestLoadSnapshotShapes(t *testing.T) {
	for _, c := range shapeDocs {
		t.Run(c.name, func(t *testing.T) {
			snap, err := loadSnapshot(writeTemp(t, "r.json", c.doc))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Cycles != 1000 || snap.Counters["x"] != 5 {
				t.Errorf("snapshot = %+v", snap)
			}
		})
	}
}

func TestLoadSnapshotRejects(t *testing.T) {
	for _, c := range rejectDocs {
		t.Run(c.name, func(t *testing.T) {
			if _, err := loadSnapshot(writeTemp(t, "r.json", c.doc)); err == nil {
				t.Error("accepted")
			}
		})
	}
	if _, err := loadSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// FuzzLoadSnapshot: any bytes either fail to load or give a snapshot that
// diffs against itself as identical, and neither step panics.
func FuzzLoadSnapshot(f *testing.F) {
	for _, c := range append(shapeDocs, rejectDocs...) {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := parseSnapshot(data)
		if err != nil {
			return
		}
		if d := diag.DiffSnapshots(snap, snap); !d.Identical() {
			t.Fatalf("snapshot differs from itself: %+v", d)
		}
	})
}

func TestParseSpec(t *testing.T) {
	sp, err := parseSpec("TDC/cact/7", true)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Cfg.Scheme != "TDC" || sp.Spec.Abbr != "cact" || sp.Cfg.Seed != 7 {
		t.Errorf("spec = %+v", sp.Cfg)
	}
	if sp.Cfg.ROIInstructions != 400_000 {
		t.Errorf("flags not applied: %+v", sp.Cfg)
	}
	if sp, err := parseSpec("NOMAD/pr", false); err != nil || sp.Cfg.Seed == 0 {
		// Seed stays at the config default when the spec omits it.
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"TDC", "Bogus/cact", "TDC/bogus", "TDC/cact/x", "a/b/c/d"} {
		if _, err := parseSpec(bad, false); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
