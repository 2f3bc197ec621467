package main

import "time"

// The reference kernel is a fixed piece of host work, timed right before
// and after every measured run, whose duration tracks how fast the host is
// at that moment. It mixes the two things a simulation run spends its time
// on: dependent loads that miss the host caches (a random cycle through a
// 16 MB table) and integer hashing. Scaling each run by
// calNominalS / measured kernel time removes the minutes-long drift of a
// shared host, which is larger than the run-to-run noise.
const (
	calTableWords = 2 << 20 // 16 MB of uint64
	calSteps      = 1_500_000
	// calNominalS is the kernel time calibrated timings are scaled to: the
	// median kernel time on the 2-CPU host the baseline was recorded on.
	// Changing it rescales every calibrated number, so it is fixed here.
	calNominalS = 0.2
)

// calibrator owns the kernel's table, built once per process.
type calibrator struct {
	next []uint64
	sink uint64
}

// newCalibrator builds a single random cycle through the table (Sattolo's
// shuffle from a fixed seed), so every step is a dependent load whose
// address the host cannot predict.
func newCalibrator() *calibrator {
	next := make([]uint64, calTableWords)
	for i := range next {
		next[i] = uint64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibrator{next: next}
}

// kernel runs the reference work once and returns its wall time in seconds.
func (c *calibrator) kernel() float64 {
	start := time.Now()
	i, h := uint64(0), c.sink
	for s := 0; s < calSteps; s++ {
		i = c.next[i]
		h ^= i
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 29
	}
	c.sink = h
	return time.Since(start).Seconds()
}
