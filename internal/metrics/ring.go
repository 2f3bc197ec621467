package metrics

// ring is the fixed-capacity ring buffer under Trace and SpanRing. emit
// overwrites the oldest record once full, so the ring always holds the most
// recent window; n counts every record emitted, so dropped reports how much
// history was lost. Every method accepts a nil *ring: a nil ring ignores
// emit and holds nothing, which lets components emit unconditionally on hot
// paths.
type ring[T any] struct {
	buf []T
	n   uint64 // total records emitted
}

// newRing returns a ring holding depth records (4096 when depth <= 0).
func newRing[T any](depth int) *ring[T] {
	if depth <= 0 {
		depth = 4096
	}
	return &ring[T]{buf: make([]T, depth)}
}

func (r *ring[T]) emit(v T) {
	if r == nil {
		return
	}
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
}

func (r *ring[T]) len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

func (r *ring[T]) dropped() uint64 {
	if r == nil || r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// reset discards every record, keeping the storage.
func (r *ring[T]) reset() {
	if r != nil {
		r.n = 0
	}
}

// records returns a copy of the retained records, oldest first.
func (r *ring[T]) records() []T {
	if r == nil {
		return nil
	}
	depth := uint64(len(r.buf))
	if r.n <= depth {
		return append([]T(nil), r.buf[:r.n]...)
	}
	out := make([]T, 0, depth)
	start := r.n % depth
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}
