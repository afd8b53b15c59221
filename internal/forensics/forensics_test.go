package forensics

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qracn/internal/trace"
)

// TestRingWraparound pins the overwrite semantics: a ring of capacity C fed
// N > C events keeps exactly the last C, oldest first, and still reports the
// true total recorded.
func TestRingWraparound(t *testing.T) {
	const cap, total = 8, 27
	r := trace.NewRing[int](cap)
	for i := 0; i < total; i++ {
		r.Record(i)
	}
	if got := r.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	snap := r.Snapshot()
	if len(snap) != cap {
		t.Fatalf("Snapshot has %d events, want %d", len(snap), cap)
	}
	for i, v := range snap {
		if want := total - cap + i; v != want {
			t.Fatalf("slot %d = %d, want %d (not oldest-first)", i, v, want)
		}
	}
}

// TestRingFewerThanCapacity checks the pre-wrap path returns exactly what
// was recorded, in order.
func TestRingFewerThanCapacity(t *testing.T) {
	r := trace.NewRing[int](16)
	for i := 0; i < 5; i++ {
		r.Record(i)
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("Snapshot has %d events, want 5", len(snap))
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("slot %d = %d, want %d", i, v, i)
		}
	}
}

// TestRingConcurrentRecord hammers a small ring from many goroutines while a
// reader snapshots continuously — the -race acceptance for the ring.
// Every surviving slot must hold a value some producer actually
// wrote, and the total must be exact.
func TestRingConcurrentRecord(t *testing.T) {
	const producers, perProducer = 8, 1000
	r := trace.NewRing[int](32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, v := range r.Snapshot() {
					if v < 0 || v >= producers*perProducer {
						panic(fmt.Sprintf("snapshot observed impossible value %d", v))
					}
				}
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.Record(p*perProducer + i)
			}
		}(p)
	}
	// Wait for producers (reader still running) by polling the counter.
	for r.Recorded() < producers*perProducer {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := r.Recorded(); got != producers*perProducer {
		t.Fatalf("Recorded() = %d, want %d", got, producers*perProducer)
	}
	if got := len(r.Snapshot()); got != 32 {
		t.Fatalf("post-storm snapshot has %d events, want 32", got)
	}
}

// TestRecorderNilSafe: a nil recorder must absorb every call — this is the
// disabled mode (-no-forensics) and must never panic.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.RecordAbort(AbortEvent{TxID: "t", Key: "k"})
	r.RecordRecompose(RecomposeEvent{Trigger: "manual"})
	r.NoteConflict("k")
	if r.Aborts() != nil || r.Recomposes() != nil || r.HotKeys(5) != nil {
		t.Fatal("nil recorder returned non-nil events")
	}
	if r.TotalAborts() != 0 || r.TotalRecomposes() != 0 {
		t.Fatal("nil recorder counted events")
	}
	if s := r.Snapshot(4); s.TotalAborts != 0 || len(s.Aborts) != 0 {
		t.Fatal("nil recorder produced a non-empty snapshot")
	}
}

// TestRecorderAttribution checks recorded events carry their cause — under
// its name in JSON, and back — that RecordAbort feeds the hot-key tally, and
// that HotKeys ranks by conflict count.
func TestRecorderAttribution(t *testing.T) {
	r := New(64)
	for i := 0; i < 5; i++ {
		r.RecordAbort(AbortEvent{TxID: "a", Key: "hot", Cause: CauseLockConflict})
	}
	r.RecordAbort(AbortEvent{TxID: "b", Key: "warm", Cause: CauseReadValidation})
	r.RecordAbort(AbortEvent{TxID: "c", Cause: CauseCommitRound}) // keyless: no tally
	evs := r.Aborts()
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7", len(evs))
	}
	doc, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"cause":"lock-conflict"`) || !strings.Contains(string(doc), `"cause":"read-validation"`) {
		t.Fatalf("causes not named in JSON: %s", doc)
	}
	var back []AbortEvent
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Cause != CauseLockConflict || back[5].Cause != CauseReadValidation || back[6].Cause != CauseCommitRound {
		t.Fatalf("causes did not survive JSON: %+v", back)
	}
	var newer AbortEvent
	if err := json.Unmarshal([]byte(`{"cause":"a-cause-of-a-newer-build"}`), &newer); err != nil || newer.Cause != CauseUnknown {
		t.Fatalf("unknown cause name decoded as %v, err %v; want CauseUnknown", newer.Cause, err)
	}
	hot := r.HotKeys(1)
	if len(hot) != 1 || hot[0].Key != "hot" || hot[0].Conflicts != 5 {
		t.Fatalf("HotKeys(1) = %+v, want hot=5", hot)
	}
	if all := r.HotKeys(0); len(all) != 2 {
		t.Fatalf("HotKeys(0) = %+v, want 2 keys", all)
	}
}

// TestHotKeyRotation fills the live tally generation past its cap and
// checks hot keys survive one rotation (prev generation still counts).
func TestHotKeyRotation(t *testing.T) {
	r := New(16)
	for i := 0; i < 10; i++ {
		r.NoteConflict("stays-hot")
	}
	// Force a rotation by inserting hotKeysCap distinct keys.
	for i := 0; i < hotKeysCap; i++ {
		r.NoteConflict(fmt.Sprintf("filler-%d", i))
	}
	hot := r.HotKeys(1)
	if len(hot) != 1 || hot[0].Key != "stays-hot" || hot[0].Conflicts != 10 {
		t.Fatalf("rotation dropped the hot key: %+v", hot)
	}
}

// TestSnapshotMerge checks the harness aggregation path: events append,
// tallies merge by key, totals sum.
func TestSnapshotMerge(t *testing.T) {
	a, b := New(8), New(8)
	a.RecordAbort(AbortEvent{TxID: "a1", Key: "k1", Cause: CauseLockConflict})
	b.RecordAbort(AbortEvent{TxID: "b1", Key: "k1", Cause: CauseLockConflict})
	b.RecordAbort(AbortEvent{TxID: "b2", Key: "k2", Cause: CauseReadValidation})
	b.RecordRecompose(RecomposeEvent{Trigger: "interval", Applied: true})
	s := a.Snapshot(8)
	s.Merge(b.Snapshot(8))
	if s.TotalAborts != 3 || len(s.Aborts) != 3 {
		t.Fatalf("merged totals wrong: %+v", s)
	}
	if s.TotalRecomposes != 1 || len(s.Recomposes) != 1 {
		t.Fatalf("merged recomposes wrong: %+v", s)
	}
	if len(s.HotKeys) != 2 || s.HotKeys[0].Key != "k1" || s.HotKeys[0].Conflicts != 2 {
		t.Fatalf("merged hot keys wrong: %+v", s.HotKeys)
	}
}

// TestRefusalReasonStamping checks a recorded decision's refusals carry
// their reason under its name in JSON, and back.
func TestRefusalReasonStamping(t *testing.T) {
	r := New(8)
	r.RecordRecompose(RecomposeEvent{
		Trigger:  "interval",
		Refusals: []Refusal{{First: 0, Second: 1, Reason: RefusalSimilarity}},
	})
	recs := r.Recomposes()
	doc, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"reason":"similarity-threshold"`) {
		t.Fatalf("refusal reason not named in JSON: %s", doc)
	}
	var back []RecomposeEvent
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Refusals[0].Reason != RefusalSimilarity {
		t.Fatalf("refusal reason did not survive JSON: %+v", back)
	}
	// A reason this build no longer has (an older peer's "shard-home")
	// decodes as the fallback.
	var old Refusal
	if err := json.Unmarshal([]byte(`{"reason":"shard-home"}`), &old); err != nil || old.Reason != RefusalDependency {
		t.Fatalf("retired reason decoded as %v (err %v), want %v", old.Reason, err, RefusalDependency)
	}
}

// TestHotKeyTallyDoesNotPinTheMessagesThatNamedIt: a conflict key off the
// wire is a view into its whole frame; the tally keeps a copy of a key it
// inserts and must not adopt the caller's view when the key conflicts again
// (a Go map adopts the key it is assigned under, even an equal one).
func TestHotKeyTallyDoesNotPinTheMessagesThatNamedIt(t *testing.T) {
	const keys, frame = 200, 32 << 10
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r := New(16)
	before := liveHeap()
	for round := 0; round < 2; round++ {
		for i := 0; i < keys; i++ {
			r.NoteConflict((strings.Repeat("x", frame) + fmt.Sprintf("row/%d", i))[frame:])
		}
	}
	if grown := int64(liveHeap()) - int64(before); grown > keys*frame/10 {
		t.Fatalf("live heap grew by %d bytes for %d keys: keys keep %d-byte frames alive", grown, keys, frame)
	}
	if top := r.HotKeys(1); len(top) != 1 || top[0].Conflicts != 2 {
		t.Fatalf("HotKeys(1) = %+v, want one key with 2 conflicts", top)
	}
}
