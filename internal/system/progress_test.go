package system

import "testing"

// TestRunEmitsFinalProgress: every phase's last report observed by the
// progress callback is the fraction-1 completion report, regardless of
// where interval ticks fell.
func TestRunEmitsFinalProgress(t *testing.T) {
	cfg := smallConfig(SchemeNOMAD)
	m, err := New(cfg, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]Progress{}
	m.SetProgress(func(p Progress) { last[p.Phase] = p })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"warmup", "roi"} {
		p, ok := last[phase]
		if !ok {
			t.Fatalf("no progress reports for phase %q", phase)
		}
		if p.Fraction() != 1 {
			t.Errorf("%s: final fraction %.3f, want 1", phase, p.Fraction())
		}
		if p.Done != p.Target || p.Target == 0 {
			t.Errorf("%s: final report %+v, want Done == Target > 0", phase, p)
		}
	}
}
