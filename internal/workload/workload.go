// Package workload generates deterministic synthetic memory-access streams
// standing in for the SPEC CPU2006 and GAP benchmarks of Table I.
//
// The paper characterizes each benchmark by two scalars — required
// miss-handling bandwidth (RMHB) of the off-package memory, and last-level
// cache misses per microsecond (LLC MPMS) — plus memory footprint and
// spatial locality. Each surrogate here is a parameterised generator tuned
// (see specs.go) so that, measured under the Ideal OS-managed configuration,
// it lands in the paper's class (Excess / Tight / Loose / Few) with the
// paper's orderings. That is sufficient because every evaluation figure is
// driven by those characteristics, not by the benchmarks' computation.
package workload

// Op is one unit of work for a core: Gap non-memory instructions followed by
// one memory access.
type Op struct {
	Gap   uint64
	Addr  uint64 // virtual byte address
	Write bool
}

// Spec parameterises one synthetic benchmark.
//
//nomad:ephemeral workload description, fixed before the first cycle and hashed into the manifest
type Spec struct {
	Name  string
	Abbr  string
	Class string // Excess, Tight, Loose, Few
	Suite string // SPEC2006 or GAPBS

	// FootprintPages is the streamed working set in 4 KB pages (per core).
	FootprintPages uint64
	// HotPages is an additional small reuse set that stays LLC-resident.
	HotPages uint64
	// HotFrac is the probability an access targets the hot set.
	HotFrac float64
	// WarmPages is a medium reuse set: larger than the LLC but smaller
	// than the DRAM cache, so its accesses miss the LLC (raising MPMS)
	// yet mostly hit the DC (leaving RMHB low). It is what separates
	// high-MPMS/low-RMHB benchmarks such as pr and mcf from the
	// streaming Excess class.
	WarmPages uint64
	// WarmFrac is the probability an access targets the warm set.
	WarmFrac float64
	// RunBlocks is how many sequential 64 B blocks are touched per page
	// visit: 64 = full-page streaming (high spatial locality), small
	// values model pointer-chasing graph kernels.
	RunBlocks int
	// SeqPageFrac is the probability the next page visited follows the
	// previous one sequentially (vs. a pseudo-random jump).
	SeqPageFrac float64
	// GapMean is the mean number of non-memory instructions between
	// memory operations; it controls MPMS.
	GapMean int
	// WriteFrac is the store fraction of memory operations.
	WriteFrac float64

	// BurstPeriodOps, if nonzero, alternates memory-intensive and quiet
	// phases every BurstPeriodOps memory operations (libq/gems "bursty
	// RMHB" behaviour). BurstDuty is the intensive fraction of the
	// period; QuietGapMult scales GapMean in the quiet phase.
	BurstPeriodOps uint64
	BurstDuty      float64
	QuietGapMult   int

	// MLP, if nonzero, caps the workload's effective memory-level
	// parallelism below the core's hardware limit (pointer chasing and
	// dependence chains limit outstanding loads in real programs).
	MLP int
}

// FootprintBytes returns the streamed footprint in bytes.
func (s Spec) FootprintBytes() uint64 { return s.FootprintPages * 4096 }

// rng is a splitmix64 generator: tiny, fast, and deterministic across runs.
//
//nomad:ephemeral deterministic xorshift state; the generated address stream is the observable record
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform integer in [0,n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Stream produces the access sequence of one core running a Spec. Streams
// are infinite; the simulation decides when to stop. Distinct cores use
// distinct seeds so their address phases differ.
//
//nomad:ephemeral synthetic stream cursor; the generated accesses drive every downstream counter
type Stream struct {
	spec Spec
	r    rng

	// streaming-region state
	page      uint64 // current page index within the footprint
	blockInPg int    // next block offset within the page visit
	runLeft   int

	hotBase  uint64 // byte base of the hot region
	warmBase uint64 // byte base of the warm region
	ops      uint64
}

// NewStream builds a stream for spec with the given seed. The virtual layout
// places the streamed footprint at 0 and the hot region immediately above.
func NewStream(spec Spec, seed uint64) *Stream {
	s := &Stream{
		spec:     spec,
		r:        rng{s: seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d},
		hotBase:  spec.FootprintPages * 4096,
		warmBase: (spec.FootprintPages + spec.HotPages) * 4096,
	}
	if s.spec.RunBlocks <= 0 {
		s.spec.RunBlocks = 1
	}
	if s.spec.RunBlocks > 64 {
		s.spec.RunBlocks = 64
	}
	if s.spec.FootprintPages == 0 {
		s.spec.FootprintPages = 1
	}
	s.nextPage()
	return s
}

// Spec returns the stream's (normalized) spec.
func (s *Stream) Spec() Spec { return s.spec }

func (s *Stream) nextPage() {
	sp := &s.spec
	if s.r.float() < sp.SeqPageFrac {
		s.page = (s.page + 1) % sp.FootprintPages
	} else {
		s.page = s.r.intn(sp.FootprintPages)
	}
	s.runLeft = sp.RunBlocks
	if sp.RunBlocks >= 64 {
		s.blockInPg = 0
	} else {
		// Short runs start at a random block so partial-page locality
		// spreads over the page.
		maxStart := 64 - sp.RunBlocks
		s.blockInPg = int(s.r.intn(uint64(maxStart + 1)))
	}
}

// quiet reports whether the stream is in the low-intensity phase of a bursty
// benchmark.
func (s *Stream) quiet() bool {
	sp := &s.spec
	if sp.BurstPeriodOps == 0 {
		return false
	}
	pos := s.ops % sp.BurstPeriodOps
	return float64(pos) >= sp.BurstDuty*float64(sp.BurstPeriodOps)
}

// Next returns the next operation. It never ends.
func (s *Stream) Next() Op {
	sp := &s.spec
	s.ops++

	gapMean := sp.GapMean
	if s.quiet() && sp.QuietGapMult > 1 {
		gapMean *= sp.QuietGapMult
	}
	// Deterministic jitter: uniform in [gapMean/2, 3*gapMean/2].
	gap := uint64(gapMean)
	if gapMean > 1 {
		gap = uint64(gapMean/2) + s.r.intn(uint64(gapMean)+1)
	}

	write := s.r.float() < sp.WriteFrac

	region := s.r.float()
	if sp.HotPages > 0 && region < sp.HotFrac {
		addr := s.hotBase + s.r.intn(sp.HotPages*4096)&^63
		return Op{Gap: gap, Addr: addr, Write: write}
	}
	if sp.WarmPages > 0 && region < sp.HotFrac+sp.WarmFrac {
		addr := s.warmBase + s.r.intn(sp.WarmPages*4096)&^63
		return Op{Gap: gap, Addr: addr, Write: write}
	}

	addr := s.page*4096 + uint64(s.blockInPg)*64
	s.blockInPg++
	s.runLeft--
	if s.runLeft <= 0 || s.blockInPg >= 64 {
		s.nextPage()
	}
	return Op{Gap: gap, Addr: addr, Write: write}
}
