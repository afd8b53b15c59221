package contention

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"qracn/internal/store"
)

// manualClock is a test clock advanced explicitly.
type manualClock struct{ t time.Time }

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)}
}
func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestMeterBeforeFirstRotation(t *testing.T) {
	c := newManualClock()
	m := NewMeter(10*time.Second, c.now)
	m.RecordWrite("a")
	m.RecordWrite("a")
	if got := m.Level("a"); got != 2 {
		t.Fatalf("Level = %v, want 2 (current window before first rotation)", got)
	}
}

func TestMeterReportsLastCompletedWindow(t *testing.T) {
	c := newManualClock()
	m := NewMeter(10*time.Second, c.now)
	for i := 0; i < 5; i++ {
		m.RecordWrite("a")
	}
	c.advance(10 * time.Second)
	m.RecordWrite("a") // lands in the new window
	if got := m.Level("a"); got != 5 {
		t.Fatalf("Level = %v, want 5 (previous window)", got)
	}
	c.advance(10 * time.Second)
	if got := m.Level("a"); got != 1 {
		t.Fatalf("Level = %v, want 1 after second rotation", got)
	}
}

func TestMeterIdleWindowsClearLevel(t *testing.T) {
	c := newManualClock()
	m := NewMeter(10*time.Second, c.now)
	m.RecordWrite("a")
	c.advance(35 * time.Second) // 3 windows elapsed with no writes in the last
	if got := m.Level("a"); got != 0 {
		t.Fatalf("Level = %v, want 0 after idle windows", got)
	}
}

func TestMeterLevelsBatch(t *testing.T) {
	c := newManualClock()
	m := NewMeter(time.Second, c.now)
	m.RecordWrite("a")
	m.RecordWrite("b")
	m.RecordWrite("b")
	got := m.Levels([]store.ObjectID{"a", "b", "c"})
	if got["a"] != 1 || got["b"] != 2 || got["c"] != 0 {
		t.Fatalf("Levels = %v", got)
	}
}

func TestMeterPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMeter(0, nil)
}

func TestTableEMA(t *testing.T) {
	tb := NewTable(0.5)
	tb.Observe("a", 10)
	if got := tb.Level("a"); got != 10 {
		t.Fatalf("first observation should seed directly, got %v", got)
	}
	tb.Observe("a", 20)
	if got := tb.Level("a"); got != 15 {
		t.Fatalf("Level = %v, want 15", got)
	}
	tb.Observe("a", 15)
	if got := tb.Level("a"); got != 15 {
		t.Fatalf("Level = %v, want 15", got)
	}
}

func TestTableAlphaOneKeepsLatest(t *testing.T) {
	tb := NewTable(1)
	tb.Observe("a", 3)
	tb.Observe("a", 9)
	if got := tb.Level("a"); got != 9 {
		t.Fatalf("Level = %v, want 9", got)
	}
}

func TestTableObserveAllAndMean(t *testing.T) {
	tb := NewTable(1)
	tb.ObserveAll(map[store.ObjectID]float64{"a": 2, "b": 4})
	if got := tb.Mean([]store.ObjectID{"a", "b"}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := tb.Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	// Unknown IDs count as zero contention.
	if got := tb.Mean([]store.ObjectID{"a", "zzz"}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Mean = %v, want 1", got)
	}
}

func TestTablePanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%v) did not panic", a)
				}
			}()
			NewTable(a)
		}()
	}
}

func TestSamplerDistinctIDs(t *testing.T) {
	u := NewUnion()
	s := NewSampler(4, u)
	s.Record("a")
	s.Record("b")
	s.Record("a")
	ids, _ := u.IDs()
	if len(ids) != 2 {
		t.Fatalf("IDs = %v, want 2 distinct", ids)
	}
	if got := s.Recent(); len(got) != 3 {
		t.Fatalf("Recent = %v, want 3 accesses with duplicates", got)
	}
}

func TestSamplerEvictsOldest(t *testing.T) {
	s := NewSampler(3, NewUnion())
	for i := 0; i < 5; i++ {
		s.Record(store.ObjectID(fmt.Sprintf("o%d", i)))
	}
	recent := s.Recent()
	if len(recent) != 3 {
		t.Fatalf("Recent = %v, want capacity 3", recent)
	}
	seen := map[store.ObjectID]bool{}
	for _, id := range recent {
		seen[id] = true
	}
	// Oldest two (o0, o1) must have aged out.
	if seen["o0"] || seen["o1"] {
		t.Fatalf("old accesses not evicted: %v", recent)
	}
}

func TestSamplerFrequencyWeighting(t *testing.T) {
	// After a phase shift the window must be dominated by the new hot
	// objects even though old distinct IDs were seen before.
	u := NewUnion()
	s := NewSampler(8, u)
	for i := 0; i < 8; i++ {
		s.Record(store.ObjectID(fmt.Sprintf("cold%d", i)))
	}
	for i := 0; i < 8; i++ {
		s.Record("hot")
	}
	for _, id := range s.Recent() {
		if id != "hot" {
			t.Fatalf("stale access %s survived a full window of hot accesses", id)
		}
	}
	if ids, _ := u.IDs(); len(ids) != 1 || ids[0] != "hot" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestSamplerPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(0, NewUnion())
}

func sortedIDs(ids []store.ObjectID) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestUnionFollowsItsSamplers: the union is the distinct IDs of all its
// samplers' windows at every moment, an ID two windows hold leaves only with
// the second, and the list handed out is rebuilt only when the set moved —
// and never modified afterwards, since callers hold on to it.
func TestUnionFollowsItsSamplers(t *testing.T) {
	u := NewUnion()
	a, b := NewSampler(2, u), NewSampler(2, u)
	a.Record("x")
	b.Record("x")
	a.Record("y")
	first, gen := u.IDs()
	if got := sortedIDs(first); got != "x y" {
		t.Fatalf("IDs = %q, want x y", got)
	}
	a.Record("x") // a: [x y] -> [x y] with the older x replaced: same set
	if again, g := u.IDs(); g != gen || &again[0] != &first[0] {
		t.Fatal("the list was rebuilt although the set did not move")
	}
	a.Record("z") // a: y ages out, z comes in
	a.Record("z") // a: [z z]; x lives on in b
	second, g := u.IDs()
	if got := sortedIDs(second); got != "x z" || g == gen {
		t.Fatalf("IDs = %q (generation %d -> %d), want x z and a new generation", got, gen, g)
	}
	if got := sortedIDs(first); got != "x y" {
		t.Fatalf("a list handed out earlier now reads %q", got)
	}
	b.Record("w")
	b.Record("w") // b: [w w]: the last x is gone
	if third, _ := u.IDs(); sortedIDs(third) != "w z" {
		t.Fatalf("IDs = %q, want w z", sortedIDs(third))
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestKeysDoNotPinTheMessagesThatNamedThem: an ID off the wire is a view into
// its whole frame. The meter and the table keep a copy of a key they insert —
// and must not swap it for the caller's view when the key is named again: a Go
// map adopts the key it is assigned under, even an equal one. Here every key
// arrives twice, each time as the tail of a 32 KB "frame" of its own.
func TestKeysDoNotPinTheMessagesThatNamedThem(t *testing.T) {
	const keys, frame = 200, 32 << 10
	view := func(i int) store.ObjectID {
		return store.ObjectID((strings.Repeat("x", frame) + fmt.Sprintf("row/%d", i))[frame:])
	}
	m := NewMeter(time.Hour, nil)
	tab := NewTable(0.5)
	before := liveHeap()
	for round := 0; round < 2; round++ {
		for i := 0; i < keys; i++ {
			m.RecordWrite(view(i))
			tab.Observe(view(i), float64(round))
		}
	}
	if grown := int64(liveHeap()) - int64(before); grown > keys*frame/10 {
		t.Fatalf("live heap grew by %d bytes for %d keys: keys keep %d-byte frames alive", grown, keys, frame)
	}
	if m.Level("row/7") != 2 || tab.Level("row/7") != 0.5 {
		t.Fatalf("row/7: meter %v, table %v; want 2 and 0.5", m.Level("row/7"), tab.Level("row/7"))
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(tab)
}
