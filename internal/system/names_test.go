package system

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricNames pins the name of every metric and timeline column a run
// registers, over all five schemes on the centralized and the distributed
// back-end. Each name must be a dotted lowercase subsys.name, and the set,
// with run-time indexes (core, channel, bank) collapsed to "*", must equal
// testdata/metric_names.txt: renaming, adding or dropping a metric is a
// reviewed diff of that file.
func TestMetricNames(t *testing.T) {
	raw := map[[2]string]bool{}
	for _, s := range AllSchemes() {
		for _, dist := range []bool{false, true} {
			cfg := smallConfig(s)
			cfg.Backend.Distributed = dist
			cfg.Timeline = true
			m, err := New(cfg, smallSpec())
			if err != nil {
				t.Fatalf("New(%s): %v", s, err)
			}
			r, err := m.Run()
			if err != nil {
				t.Fatalf("Run(%s): %v", s, err)
			}
			snap := r.Metrics
			for name := range snap.Counters {
				raw[[2]string{"metric", name}] = true
			}
			for name := range snap.Gauges {
				raw[[2]string{"metric", name}] = true
			}
			for name := range snap.Histograms {
				raw[[2]string{"metric", name}] = true
			}
			for name := range snap.Timeline.Metrics {
				raw[[2]string{"interval", name}] = true
			}
		}
	}
	valid := regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)
	runIndex := regexp.MustCompile(`^(ch|bank)?[0-9]+$`)
	seen := map[string]bool{}
	for k := range raw {
		ns, name := k[0], k[1]
		if !valid.MatchString(name) {
			t.Errorf("%s name %q is not a dotted lowercase [a-z0-9_] name", ns, name)
		}
		segs := strings.Split(name, ".")
		for i, seg := range segs {
			segs[i] = runIndex.ReplaceAllString(seg, "${1}*")
		}
		seen[ns+"\t"+strings.Join(segs, ".")] = true
	}
	got := make([]string, 0, len(seen))
	for l := range seen {
		got = append(got, l)
	}
	sort.Strings(got)
	gotText := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", "metric_names.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotText != string(want) {
		t.Errorf("registered metric names differ from %s; if the change is intended, replace the file with:\n%s", path, gotText)
	}
}
