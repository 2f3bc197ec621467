package metrics

import (
	"encoding/json"
	"testing"
)

// digestFixture builds a registry with one of each metric kind and an
// active digest chain anchored at 0 with interval 100.
func digestFixture() (*Registry, *Counter, *Histogram, *float64) {
	r := NewRegistry()
	c := r.Counter("d.count")
	g := new(float64)
	r.GaugeFunc("d.gauge", func() float64 { return *g })
	h := r.Histogram("d.hist")
	r.BeginDigests(0, 100)
	return r, c, h, g
}

func chain(r *Registry) *DigestChain { return r.Snapshot(0).Digests }

// TestDigestDeterministic: identical state sequences produce identical
// chains, and the chain length tracks the sampled windows.
func TestDigestDeterministic(t *testing.T) {
	build := func() *DigestChain {
		r, c, h, g := digestFixture()
		c.Add(3)
		*g = 1.5
		h.Observe(7)
		r.SampleInterval(100)
		c.Add(2)
		r.SampleInterval(200)
		return chain(r)
	}
	a, b := build(), build()
	if a.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", a.Windows())
	}
	if a.FirstDivergence(b) != -1 {
		t.Errorf("identical sequences diverged: %+v vs %+v", a, b)
	}
	if a.Algo != DigestAlgo || a.Interval != 100 || a.StartCycle != 0 {
		t.Errorf("chain header = %+v", a)
	}
	if a.Cycles[0] != 100 || a.Cycles[1] != 200 {
		t.Errorf("cycles = %v, want ROI-relative window ends", a.Cycles)
	}
	if a.Final() != a.Digests[1] {
		t.Errorf("Final() = %s, want last digest %s", a.Final(), a.Digests[1])
	}
}

// TestDigestChaining: a state difference in window 0 changes every later
// digest even when the later per-window state is identical.
func TestDigestChaining(t *testing.T) {
	build := func(first uint64) *DigestChain {
		r, c, _, _ := digestFixture()
		c.Add(first)
		r.SampleInterval(100)
		// Window 1 adds nothing on either side; without chaining its digest
		// would collapse to the same value for both runs whenever the
		// per-window fold saw equal state.
		r.SampleInterval(200)
		return chain(r)
	}
	a, b := build(1), build(2)
	if a.Digests[0] == b.Digests[0] {
		t.Fatal("differing window-0 state produced equal digests")
	}
	if a.Digests[1] == b.Digests[1] {
		t.Error("window-1 digests equal despite differing predecessors: not chained")
	}
	if i := a.FirstDivergence(b); i != 0 {
		t.Errorf("FirstDivergence = %d, want 0", i)
	}
}

// TestDigestGaugeSensitivity: gauges fold through Float64bits, so a gauge
// change alone must change the digest.
func TestDigestGaugeSensitivity(t *testing.T) {
	build := func(v float64) *DigestChain {
		r, _, _, g := digestFixture()
		*g = v
		r.SampleInterval(100)
		return chain(r)
	}
	if build(1.0).Final() == build(1.0000000001).Final() {
		t.Error("tiny gauge change not reflected in digest")
	}
}

// TestFirstDivergenceCases pins the prefix/nil/empty semantics.
func TestFirstDivergenceCases(t *testing.T) {
	r, c, _, _ := digestFixture()
	c.Add(1)
	r.SampleInterval(100)
	r.SampleInterval(200)
	full := chain(r)

	r2, c2, _, _ := digestFixture()
	c2.Add(1)
	r2.SampleInterval(100)
	prefix := chain(r2)

	if i := full.FirstDivergence(prefix); i != 1 {
		t.Errorf("strict prefix: FirstDivergence = %d, want shorter length 1", i)
	}
	if i := prefix.FirstDivergence(full); i != 1 {
		t.Errorf("strict prefix (reversed): FirstDivergence = %d, want 1", i)
	}
	var nilChain *DigestChain
	if i := nilChain.FirstDivergence(nil); i != -1 {
		t.Errorf("nil vs nil = %d, want -1", i)
	}
	if i := nilChain.FirstDivergence(full); i != 0 {
		t.Errorf("nil vs non-empty = %d, want 0", i)
	}
	if nilChain.Windows() != 0 || nilChain.Final() != "" {
		t.Error("nil chain accessors not zero-valued")
	}
}

// TestDigestSnapshotJSON: digests are hex strings in JSON (uint64 survives
// generic JSON tooling), and absent entirely before BeginDigests.
func TestDigestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("d.c").Add(1)
	if r.Snapshot(50).Digests != nil {
		t.Error("digests present before BeginDigests")
	}
	r.BeginDigests(0, 100)
	r.SampleInterval(100)
	enc, err := json.Marshal(r.Snapshot(100).Digests)
	if err != nil {
		t.Fatal(err)
	}
	var dec DigestChain
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Digests) != 1 || len(dec.Digests[0]) != 16 {
		t.Errorf("digest encoding = %v, want one 16-hex-char string", dec.Digests)
	}
}

// TestDigestMarkROIReanchors: MarkROI restarts an active chain at the ROI
// boundary, like the timeline.
func TestDigestMarkROIReanchors(t *testing.T) {
	r, c, _, _ := digestFixture()
	c.Add(5)
	r.SampleInterval(100)
	r.MarkROI(150)
	c.Add(1)
	r.SampleInterval(250)
	dc := r.Snapshot(250).Digests
	if dc.StartCycle != 150 {
		t.Errorf("StartCycle = %d, want re-anchored 150", dc.StartCycle)
	}
	if dc.Windows() != 1 || dc.Cycles[0] != 100 {
		t.Errorf("post-ROI chain = %+v, want one window ending at ROI-relative 100", dc)
	}
}

// TestSampleDigestIdempotentAtSameCycle: FinishTimeline at an exact window
// boundary must not append a duplicate zero-length window.
func TestSampleDigestIdempotentAtSameCycle(t *testing.T) {
	r, c, _, _ := digestFixture()
	c.Add(1)
	r.SampleInterval(100)
	r.FinishTimeline(100)
	if dc := chain(r); dc.Windows() != 1 {
		t.Errorf("windows = %d after same-cycle finish, want 1", dc.Windows())
	}
}
