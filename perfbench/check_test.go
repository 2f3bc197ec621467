package main

import (
	"strings"
	"testing"

	"nomad/internal/system"
)

func TestCheckDigests(t *testing.T) {
	cases := []struct {
		digests []string
		bad     []bool
	}{
		{[]string{"a"}, []bool{false}},
		{[]string{"a", "a", "a"}, []bool{false, false, false}},
		{[]string{"a", "b", "a"}, []bool{false, true, false}},
		// No majority: nothing says which run is right.
		{[]string{"a", "b"}, []bool{true, true}},
		{[]string{"a", "a", "b", "b"}, []bool{true, true, true, true}},
		// A run that errored has no digest and disagrees with the rest.
		{[]string{"", "a", "a"}, []bool{true, false, false}},
	}
	for _, c := range cases {
		got := checkDigests(c.digests)
		for i := range got {
			if got[i] != c.bad[i] {
				t.Errorf("checkDigests(%q) = %v, want %v", c.digests, got, c.bad)
				break
			}
		}
	}
}

func TestTallyCountsDigestMismatchAndOwnFailures(t *testing.T) {
	failed, digest := tally([]string{"a", "a", "x", "a"}, []bool{true, false, true, true})
	if failed != 2 || digest != "a" {
		t.Errorf("tally = %d failed, digest %q; want 2 failed (one own check, one digest), digest a", failed, digest)
	}
	if failed, _ := tally([]string{"a", "a"}, []bool{true, true}); failed != 0 {
		t.Errorf("agreeing runs: %d failed, want 0", failed)
	}
}

func goodRun() runResult {
	res := &system.Result{Cores: 8, Cycles: 1000}
	res.CPIStack.Compute = 6000
	res.CPIStack.TagMiss = 1500
	res.CPIStack.Mem[3] = 500
	return runResult{
		res:    res,
		cores:  8,
		insts:  8 * (warmupInstructions + roiInstructions),
		digest: "0123456789abcdef",
	}
}

func TestCheckRun(t *testing.T) {
	if err := checkRun(goodRun()); err != nil {
		t.Fatalf("consistent run failed its check: %v", err)
	}
	cpi := goodRun()
	cpi.res.CPIStack.Frontend++ // one core-cycle counted twice
	short := goodRun()
	short.insts--
	nodigest := goodRun()
	nodigest.digest = ""
	for name, c := range map[string]struct {
		r    runResult
		want string
	}{
		"cpi sum":      {cpi, "CPI stack"},
		"instructions": {short, "retired"},
		"digest":       {nodigest, "digest"},
	} {
		err := checkRun(c.r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checkRun = %v, want an error about %q", name, err, c.want)
		}
	}
}
