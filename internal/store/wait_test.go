package store

import (
	"context"
	"testing"
	"time"
)

// awaitResult is what one AwaitRelease call returned.
type awaitResult struct {
	waited time.Duration
	capped bool
}

// startAwait runs AwaitRelease on a goroutine and returns once the call is
// parked on the store's wake channel.
func startAwait(t *testing.T, s *Store, ctx context.Context, max, limit time.Duration, id ObjectID, more ...ObjectID) <-chan awaitResult {
	t.Helper()
	done := make(chan awaitResult, 1)
	go func() {
		w, c := s.AwaitRelease(ctx, max, limit, id, more...)
		done <- awaitResult{w, c}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if s.Awaiting() {
			return done
		}
		select {
		case r := <-done:
			t.Fatalf("AwaitRelease returned %+v before anything released the object", r)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("AwaitRelease never started waiting")
		}
	}
}

// woken asserts the wait ended on a release, well before its bound.
func woken(t *testing.T, what string, done <-chan awaitResult) {
	t.Helper()
	select {
	case r := <-done:
		if r.capped || r.waited <= 0 {
			t.Fatalf("%s: AwaitRelease = %+v, want a positive wait that was not capped", what, r)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the release did not wake the waiter", what)
	}
}

func TestAwaitReleaseWakesOnApply(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatal(err)
	}
	done := startAwait(t, s, context.Background(), time.Minute, time.Minute, "a")
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(2), NewVersion: 2}, "tx1"); err != nil {
		t.Fatal(err)
	}
	woken(t, "Apply", done)
	if v, ver, err := s.Get("a"); err != nil || ver != 2 || AsInt64(v) != 2 {
		t.Fatalf("Get after the wait = %v, %d, %v; want the applied value 2 at version 2", v, ver, err)
	}
}

func TestAwaitReleaseWakesOnUnprotect(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	s.Seed("b", Int64(1))
	if err := s.Protect("b", "tx1", false); err != nil {
		t.Fatal(err)
	}
	// The held object is a further one of the read, not its first.
	done := startAwait(t, s, context.Background(), time.Minute, time.Minute, "a", "b")
	if err := s.Unprotect("b", "tx1"); err != nil {
		t.Fatal(err)
	}
	woken(t, "Unprotect", done)
	if s.Awaiting() {
		t.Fatal("the wake channel outlived its last waiter")
	}
}

func TestAwaitReleaseIgnoresSharedHolds(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.ProtectShared("a", "reader"); err != nil {
		t.Fatal(err)
	}
	if w, c := s.AwaitRelease(context.Background(), time.Minute, time.Minute, "a", "absent"); w != 0 || c {
		t.Fatalf("AwaitRelease on a shared hold = %v, %v; want 0, false (no wait)", w, c)
	}
}

func TestAwaitReleaseReturnsAtTheCap(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "undecided", false); err != nil {
		t.Fatal(err)
	}
	const limit = 20 * time.Millisecond
	w, c := s.AwaitRelease(context.Background(), time.Minute, limit, "a")
	if !c || w < limit {
		t.Fatalf("AwaitRelease on a hold nobody releases = %v, %v; want capped after >= %v", w, c, limit)
	}
	if _, _, err := s.Get("a"); err == nil {
		t.Fatal("the hold is still in force; Get must still answer busy")
	}
}

func TestAwaitReleaseSkipsHoldsOlderThanTheCap(t *testing.T) {
	now := time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)
	s := New()
	s.SetProtectTTL(time.Hour, func() time.Time { return now })
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "undecided", false); err != nil {
		t.Fatal(err)
	}
	const max = 4 * time.Millisecond
	now = now.Add(max)
	start := time.Now()
	if w, c := s.AwaitRelease(context.Background(), max, time.Minute, "a"); w != 0 || c {
		t.Fatalf("AwaitRelease on a hold %v old = %v, %v; want 0, false (not waited for)", max, w, c)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("AwaitRelease took %v on a hold it must not wait for", d)
	}
}

func TestAwaitReleaseEndsWithItsContext(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "undecided", false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := startAwait(t, s, ctx, time.Minute, time.Minute, "a")
	cancel()
	select {
	case r := <-done:
		if r.capped {
			t.Fatalf("a cancelled wait reported capped: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the context did not end the wait")
	}
}

// TestAwaitReleaseAllocatesNothingWhenFree: a read of rows nobody holds
// exclusively pays one read-locked check and no allocation.
func TestAwaitReleaseAllocatesNothingWhenFree(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	s.Seed("b", Int64(1))
	if err := s.ProtectShared("b", "reader"); err != nil {
		t.Fatal(err)
	}
	more := []ObjectID{"b", "absent"}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		s.AwaitRelease(ctx, time.Minute, time.Minute, "a", more...)
	}); n != 0 {
		t.Fatalf("AwaitRelease with nothing held allocates %v times, want 0", n)
	}
}
