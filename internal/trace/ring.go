package trace

import "sync"

// Ring is a bounded buffer of the newest events recorded into it. Its slots
// are allocated all at once by the first Record — a ring nobody records into
// costs nothing, which is what lets every runtime and node carry forensic
// rings by default — and every later Record takes the lock, overwrites the
// oldest slot and allocates nothing. It is the one ring behind the Tracer's
// spans and the forensics recorder's abort and recompose events.
type Ring[T any] struct {
	mu   sync.Mutex
	size int
	// slots[i%size] holds the i-th event recorded.
	slots []T
	total uint64
}

// NewRing builds a ring with n slots (n < 1 is clamped to 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{size: n}
}

// Record stores one event, overwriting the oldest once the ring is full.
func (r *Ring[T]) Record(e T) {
	r.mu.Lock()
	if r.slots == nil {
		r.slots = make([]T, r.size)
	}
	r.slots[r.total%uint64(r.size)] = e
	r.total++
	r.mu.Unlock()
}

// Recorded returns the number of events ever recorded (including ones the
// ring has overwritten), so consumers can report drop counts.
func (r *Ring[T]) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the buffered events, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(r.size) {
		return append(make([]T, 0, r.total), r.slots[:r.total]...)
	}
	oldest := r.total % uint64(r.size)
	out := make([]T, 0, r.size)
	out = append(out, r.slots[oldest:]...)
	return append(out, r.slots[:oldest]...)
}
