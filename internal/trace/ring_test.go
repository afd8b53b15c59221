package trace

import "testing"

// TestRingAllocatesOnceThenNever: an unused ring holds no slots (every
// runtime and node carries forensic rings it may never record into), the
// first Record allocates all of them, and no later Record — before or after
// the ring wraps — allocates anything.
func TestRingAllocatesOnceThenNever(t *testing.T) {
	r := NewRing[Span](64)
	if r.slots != nil || len(r.Snapshot()) != 0 || r.Recorded() != 0 {
		t.Fatal("a ring nothing was recorded into is not empty and slotless")
	}
	s := Span{Trace: "t", Name: "n", Site: "s"}
	r.Record(s)
	if len(r.slots) != 64 {
		t.Fatalf("first Record allocated %d slots, want all 64", len(r.slots))
	}
	if allocs := testing.AllocsPerRun(200, func() { r.Record(s) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f times per event", allocs)
	}
	if got := len(r.Snapshot()); got != 64 || r.Recorded() != 202 {
		t.Fatalf("ring holds %d of %d events, want 64 of 202", got, r.Recorded())
	}
}
