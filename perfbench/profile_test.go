package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"nomad/internal/cache.(*Cache).fill":              "cache",
		"nomad/internal/sim.(*WheelScheduler).Advance":    "sim",
		"nomad/internal/core.(*Frontend).tagMiss.func1.1": "core.frontend",
		"nomad/internal/core.(*mutexSim).lock":            "core.frontend",
		"nomad/internal/core.(*Backend).CheckCacheAccess": "core.backend",
		"nomad/internal/core.(*pcshr).Complete":           "core.backend",
		"nomad/internal/core.(*Copier).Copy.func1":        "core.copier",
		"nomad/internal/metrics.(*Ring[...]).Emit":        "metrics",
		"nomad/internal/system.(*Machine).runMemOp":       "system",
		"nomad/internal/mem.BlockNum":                     "",
		"nomad/internal/check.Assert":                     "",
		"runtime.mapaccess2_fast64":                       "",
		"main.main":                                       "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb builds protobuf messages for the synthetic profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(num, data)
}

func TestFoldSyntheticProfile(t *testing.T) {
	names := []string{"",
		"runtime.mallocgc",                            // 1
		"nomad/internal/cache.(*Cache).fill",          // 2
		"nomad/internal/mem.BlockNum",                 // 3
		"nomad/internal/cache.(*Cache).lookup",        // 4
		"runtime.gcBgMarkWorker",                      // 5
		"nomad/internal/core.(*Frontend).tagMiss",     // 6
		"nomad/internal/core.(*pcshr).Complete",       // 7
		"nomad/internal/core.(*Copier).Copy",          // 8
		"main.main",                                   // 9
		"nomad/internal/system.(*Machine).RunContext", // 10
	}
	var p pb
	for i, s := range names {
		p = p.bytes(6, []byte(s))
		if i > 0 {
			p = p.bytes(5, pb(nil).varint(1, uint64(i)).varint(2, uint64(i)))
		}
	}
	// Location id = function id, one line each, except location 11: an
	// inlined frame (mem.BlockNum) inside cache.lookup, innermost first.
	for id := uint64(1); id <= 10; id++ {
		p = p.bytes(4, pb(nil).varint(1, id).bytes(4, pb(nil).varint(1, id)))
	}
	p = p.bytes(4, pb(nil).varint(1, 11).bytes(4, pb(nil).varint(1, 3)).bytes(4, pb(nil).varint(1, 4)))
	sample := func(count uint64, locs ...uint64) pb {
		return pb(nil).packed(1, locs...).packed(2, count, count*10_000_000)
	}
	p = p.bytes(2, sample(3, 1, 2, 10))                // runtime leaf under cache: cache
	p = p.bytes(2, sample(2, 11, 10))                  // inlined helper: cache
	p = p.bytes(2, sample(5, 5))                       // GC worker: runtime
	p = p.bytes(2, sample(1, 6, 10))                   // core.frontend
	p = p.bytes(2, sample(1, 1, 7, 10))                // core.backend
	p = p.bytes(2, sample(1, 8))                       // core.copier
	p = p.bytes(2, sample(4, 9))                       // no model frame: runtime
	p = p.bytes(2, pb(nil).varint(1, 10).varint(2, 2)) // unpacked: system

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, total, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 5, "runtime": 9, "core.frontend": 1, "core.backend": 1, "core.copier": 1, "system": 2}
	if total != 19 {
		t.Errorf("total = %d, want 19", total)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("%s = %d samples, want %d (all: %v)", l, got[l], n, got)
		}
	}

	if _, _, err := foldProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile: no error")
	}
	var bad bytes.Buffer
	zw = gzip.NewWriter(&bad)
	zw.Write(p[:len(p)-1])
	zw.Close()
	if _, _, err := foldProfile(bad.Bytes()); err == nil {
		t.Error("truncated protobuf: no error")
	}
}

// TestFoldCapturedProfile profiles a known busy loop with runtime/pprof,
// so the decoder meets what the Go runtime really writes.
func TestFoldCapturedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	body, err := setupOSMem(1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		body()
	}
	pprof.StopCPUProfile()
	got, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Fatalf("%d samples in a busy second", total)
	}
	if 2*got["osmem"] < total {
		t.Errorf("osmem has %d of %d samples of a loop over osmem calls: %v", got["osmem"], total, got)
	}
}
