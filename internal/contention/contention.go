// Package contention implements the paper's dynamic module: quorum nodes
// count write operations per object in rotating time windows (the
// "contention level" of an object is its write count in the last window,
// §V-C2), and clients maintain a smoothed contention table fed once per
// refresh by a stats query to each quorum group's read quorum.
package contention

import (
	"sync"
	"time"

	"qracn/internal/store"
)

// Meter is the server-side write counter with rotating windows. Moving from
// one time window to the next resets the counters; Level reports the count
// observed in the last *completed* window, which keeps the value stable for
// clients that poll more often than the window length.
type Meter struct {
	window time.Duration
	now    func() time.Time

	mu       sync.Mutex
	curStart time.Time
	// The counters sit behind pointers so that counting a write of a known
	// key is a lookup, never a map assignment: assigning under an existing
	// string key makes the map adopt the caller's copy of the key, and the
	// caller's copy is a view into the decision that carried it
	// (wire.DecodeEnvelope) — every key would keep its latest frame alive.
	cur     map[store.ObjectID]*uint64
	prev    map[store.ObjectID]*uint64
	rotated bool
}

// NewMeter creates a meter with the given window length. now may be nil for
// time.Now; tests inject a manual clock.
func NewMeter(window time.Duration, now func() time.Time) *Meter {
	if window <= 0 {
		panic("contention: window must be positive")
	}
	if now == nil {
		now = time.Now
	}
	m := &Meter{
		window: window,
		now:    now,
		cur:    make(map[store.ObjectID]*uint64),
		prev:   make(map[store.ObjectID]*uint64),
	}
	m.curStart = now()
	return m
}

// rotateLocked advances windows so that curStart is within one window of
// now. If more than one window elapsed silently, the last completed window
// saw no writes, so prev becomes empty.
func (m *Meter) rotateLocked() {
	t := m.now()
	elapsed := t.Sub(m.curStart)
	if elapsed < m.window {
		return
	}
	steps := int(elapsed / m.window)
	if steps == 1 {
		m.prev = m.cur
	} else {
		m.prev = make(map[store.ObjectID]*uint64)
	}
	m.cur = make(map[store.ObjectID]*uint64)
	m.curStart = m.curStart.Add(time.Duration(steps) * m.window)
	m.rotated = true
}

// RecordWrite counts one committed write of the object in the current
// window.
func (m *Meter) RecordWrite(id store.ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rotateLocked()
	if n := m.cur[id]; n != nil {
		*n++
		return
	}
	// A key lives for up to two windows, the decision that carried id does
	// not (ObjectID.Clone).
	one := uint64(1)
	m.cur[id.Clone()] = &one
}

// level is the count the meter reports for id. Callers hold m.mu.
func (m *Meter) level(id store.ObjectID) float64 {
	window := m.prev
	if !m.rotated {
		window = m.cur
	}
	if n := window[id]; n != nil {
		return float64(*n)
	}
	return 0
}

// Level returns the object's contention level: the write count in the last
// completed window, or — before the first rotation — the count so far in the
// current window.
func (m *Meter) Level(id store.ObjectID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rotateLocked()
	return m.level(id)
}

// Levels returns the contention level for each requested object.
func (m *Meter) Levels(ids []store.ObjectID) map[store.ObjectID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rotateLocked()
	out := make(map[store.ObjectID]float64, len(ids))
	for _, id := range ids {
		out[id] = m.level(id)
	}
	return out
}

// Table is the client-side contention cache: an exponential moving average
// per object over the levels reported by servers, so one noisy window does
// not whipsaw the block composition.
type Table struct {
	alpha float64

	mu sync.Mutex
	// levels holds pointers for the reason Meter's windows do: folding a
	// sample into a known key must not make the map adopt the reply's copy
	// of the key.
	levels map[store.ObjectID]*float64
}

// NewTable creates a table with EMA weight alpha in (0,1]; alpha 1 keeps
// only the latest sample.
func NewTable(alpha float64) *Table {
	if alpha <= 0 || alpha > 1 {
		panic("contention: alpha must be in (0,1]")
	}
	return &Table{alpha: alpha, levels: make(map[store.ObjectID]*float64)}
}

// Observe folds one reported level into the table.
func (t *Table) Observe(id store.ObjectID, level float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.levels[id]; old != nil {
		*old += t.alpha * (level - *old)
		return
	}
	t.levels[id.Clone()] = &level // the table outlives the reply that reported id
}

// ObserveAll folds a batch of reported levels into the table.
func (t *Table) ObserveAll(levels map[store.ObjectID]float64) {
	for id, l := range levels {
		t.Observe(id, l)
	}
}

// Level returns the smoothed contention level of the object (0 if never
// observed).
func (t *Table) Level(id store.ObjectID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.levelLocked(id)
}

func (t *Table) levelLocked(id store.ObjectID) float64 {
	if l := t.levels[id]; l != nil {
		return *l
	}
	return 0
}

// Mean returns the average smoothed level over the given objects, or 0 for
// an empty set. It is the statement-level aggregation used by the algorithm
// module: a remote statement's contention is the mean level of the concrete
// objects it recently touched.
func (t *Table) Mean(ids []store.ObjectID) float64 {
	if len(ids) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, id := range ids {
		sum += t.levelLocked(id)
	}
	return sum / float64(len(ids))
}

// Sampler remembers the last K object accesses a statement made (with
// duplicates). The executor feeds it on every remote access; the algorithm
// module asks it which concrete objects a statement currently stands for
// when estimating the statement's contention. Keeping duplicates makes the
// estimate frequency-weighted: when a phase shift concentrates the
// statement's draws on a few hot objects, those objects quickly dominate
// the window and stale cold IDs age out.
type Sampler struct {
	capacity int

	mu   sync.Mutex
	ring []store.ObjectID
	next int
}

// NewSampler creates a sampler holding the last capacity accesses.
func NewSampler(capacity int) *Sampler {
	if capacity <= 0 {
		panic("contention: sampler capacity must be positive")
	}
	return &Sampler{
		capacity: capacity,
		ring:     make([]store.ObjectID, 0, capacity),
	}
}

// Record notes one access to the object.
func (s *Sampler) Record(id store.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, id)
		return
	}
	s.ring[s.next] = id
	s.next = (s.next + 1) % s.capacity
}

// Recent returns the remembered accesses, duplicates included (frequency
// weighting for contention estimation).
func (s *Sampler) Recent() []store.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]store.ObjectID, len(s.ring))
	copy(out, s.ring)
	return out
}
