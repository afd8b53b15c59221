package store

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// holds reports who holds id, by mode, as Snapshot sees it.
func holds(s *Store, id ObjectID) (exclusive string, shared []string) {
	o := s.Snapshot()[id]
	shared = append(shared, o.SharedBy...)
	sort.Strings(shared)
	return o.ProtectedBy, shared
}

// busyWith asserts err is a refusal naming the given holder and mode.
func busyWith(t *testing.T, what string, err error, holder string, shared bool) {
	t.Helper()
	var be *BusyError
	if !errors.Is(err, ErrBusy) || !errors.As(err, &be) {
		t.Fatalf("%s: err = %v, want a *BusyError wrapping ErrBusy", what, err)
	}
	if be.Holder != holder || be.Shared != shared {
		t.Fatalf("%s: refused by %q (shared=%v), want %q (shared=%v)", what, be.Holder, be.Shared, holder, shared)
	}
}

// TestProtectionCompatibilityMatrix is the S/X matrix: for a row held in one
// mode by tx1, what a Get, a shared protection and an exclusive protection
// by tx2 — and the same requests by tx1 itself — are answered.
func TestProtectionCompatibilityMatrix(t *testing.T) {
	type outcome struct {
		busy   bool
		shared bool // mode of the refusing holder
	}
	ok := outcome{}
	cases := []struct {
		held                            string // "", "shared", "exclusive": tx1's hold
		get, otherS, otherX, ownS, ownX outcome
	}{
		{held: "", get: ok, otherS: ok, otherX: ok, ownS: ok, ownX: ok},
		{held: "shared", get: ok, otherS: ok, otherX: outcome{busy: true, shared: true}, ownS: ok, ownX: ok},
		{held: "exclusive", get: outcome{busy: true}, otherS: outcome{busy: true}, otherX: outcome{busy: true}, ownS: ok, ownX: ok},
	}
	for _, c := range cases {
		setup := func() *Store {
			s := New()
			s.Seed("a", Int64(1))
			var err error
			switch c.held {
			case "shared":
				err = s.ProtectShared("a", "tx1")
			case "exclusive":
				err = s.Protect("a", "tx1", false)
			}
			if err != nil {
				t.Fatalf("held=%q: setup: %v", c.held, err)
			}
			return s
		}
		check := func(what string, err error, want outcome) {
			t.Helper()
			what = fmt.Sprintf("held=%q %s", c.held, what)
			if !want.busy {
				if err != nil {
					t.Fatalf("%s: %v, want ok", what, err)
				}
				return
			}
			busyWith(t, what, err, "tx1", want.shared)
		}
		_, _, err := setup().Get("a")
		check("Get", err, c.get)
		check("ProtectShared by tx2", setup().ProtectShared("a", "tx2"), c.otherS)
		check("Protect by tx2", setup().Protect("a", "tx2", false), c.otherX)
		check("ProtectShared by tx1", setup().ProtectShared("a", "tx1"), c.ownS)
		check("Protect by tx1", setup().Protect("a", "tx1", false), c.ownX)
	}
}

// TestReprotectIsIdempotent: taking the same hold twice leaves one hold, a
// shared request under an own exclusive hold keeps the exclusive one, and an
// exclusive request over an own (sole) shared hold upgrades it.
func TestReprotectIsIdempotent(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	for i := 0; i < 3; i++ {
		if err := s.ProtectShared("a", "tx1"); err != nil {
			t.Fatal(err)
		}
	}
	if x, sh := holds(s, "a"); x != "" || !reflect.DeepEqual(sh, []string{"tx1"}) {
		t.Fatalf("after 3 shared protects: exclusive %q shared %v, want one shared hold", x, sh)
	}
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatalf("upgrade of a sole shared hold: %v", err)
	}
	if err := s.ProtectShared("a", "tx1"); err != nil {
		t.Fatalf("shared request under own exclusive hold: %v", err)
	}
	if x, sh := holds(s, "a"); x != "tx1" || len(sh) != 0 {
		t.Fatalf("after upgrade: exclusive %q shared %v, want exclusive only", x, sh)
	}
	if err := s.Unprotect("a", "tx1"); err != nil {
		t.Fatal(err)
	}
	if x, sh := holds(s, "a"); x != "" || len(sh) != 0 {
		t.Fatalf("after release: exclusive %q shared %v, want none", x, sh)
	}

	// An upgrade is refused while another reader holds the row, and the
	// refusal costs the asker nothing it held.
	if err := s.ProtectShared("a", "tx1"); err != nil {
		t.Fatal(err)
	}
	if err := s.ProtectShared("a", "tx2"); err != nil {
		t.Fatal(err)
	}
	busyWith(t, "upgrade beside another reader", s.Protect("a", "tx1", false), "tx2", true)
	if _, sh := holds(s, "a"); !reflect.DeepEqual(sh, []string{"tx1", "tx2"}) {
		t.Fatalf("refused upgrade changed the holders: %v", sh)
	}
}

// TestReleaseIsPerHolder: Unprotect and Apply give up the caller's hold and
// nobody else's.
func TestReleaseIsPerHolder(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	for _, tx := range []string{"tx1", "tx2", "tx3"} {
		if err := s.ProtectShared("a", tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Unprotect("a", "tx2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unprotect("a", "stranger"); err != nil {
		t.Fatalf("Unprotect by a non-holder of a shared-held row: %v", err)
	}
	if _, sh := holds(s, "a"); !reflect.DeepEqual(sh, []string{"tx1", "tx3"}) {
		t.Fatalf("holders = %v, want tx1 and tx3", sh)
	}
	// A repair-style Apply by a non-holder installs the value and leaves the
	// readers' holds alone; an Apply by a holder drops only its own.
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(2), NewVersion: 2}, "read-repair"); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(2), NewVersion: 2}, "tx1"); err != nil {
		t.Fatal(err)
	}
	if _, sh := holds(s, "a"); !reflect.DeepEqual(sh, []string{"tx3"}) {
		t.Fatalf("holders after Apply = %v, want tx3", sh)
	}
	busyWith(t, "writer vs the remaining reader", s.Protect("a", "w", false), "tx3", true)
	if err := s.Unprotect("a", "tx3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect("a", "w", false); err != nil {
		t.Fatalf("writer after the last reader left: %v", err)
	}
	if err := s.Unprotect("a", "tx3"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Unprotect under another's exclusive hold: %v, want ErrNotOwner", err)
	}
	if err := s.ProtectShared("missing", "tx1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("shared protection of a missing object: %v, want ErrNotFound", err)
	}
}

// TestSharedTTLExpiryIsPerHolder: each shared hold runs its own lease, a
// refresh restarts only the refresher's, and a lapsed hold refuses nothing.
func TestSharedTTLExpiryIsPerHolder(t *testing.T) {
	now := time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)
	s := New()
	s.SetProtectTTL(time.Second, func() time.Time { return now })
	s.Seed("a", Int64(1))
	if err := s.ProtectShared("a", "old"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(600 * time.Millisecond)
	if err := s.ProtectShared("a", "young"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(600 * time.Millisecond) // old: 1.2s (lapsed), young: 0.6s
	if _, sh := holds(s, "a"); !reflect.DeepEqual(sh, []string{"young"}) {
		t.Fatalf("live holders = %v, want young only", sh)
	}
	busyWith(t, "writer vs the live reader", s.Protect("a", "w", false), "young", true)
	if err := s.ProtectShared("a", "young"); err != nil { // lease refresh
		t.Fatal(err)
	}
	now = now.Add(600 * time.Millisecond) // young: 0.6s since refresh
	busyWith(t, "writer vs the refreshed reader", s.Protect("a", "w", false), "young", true)
	now = now.Add(600 * time.Millisecond)
	if err := s.Protect("a", "w", false); err != nil {
		t.Fatalf("writer after every lease lapsed: %v", err)
	}
}

// TestMixedHoldersStress hammers one row with readers and writers under
// -race and checks the invariant the modes exist for: a writer never holds
// the row at the same time as anyone else.
func TestMixedHoldersStress(t *testing.T) {
	s := New()
	s.Seed("o", Int64(0))
	const workers, rounds = 16, 300
	var readers, writers atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := fmt.Sprintf("tx%d", i)
			for r := 0; r < rounds; r++ {
				if (i+r)%4 == 0 {
					if s.Protect("o", tx, false) != nil {
						continue
					}
					if w, rd := writers.Add(1), readers.Load(); w != 1 || rd != 0 {
						t.Errorf("writer %s holds the row beside %d writers and %d readers", tx, w-1, rd)
					}
					writers.Add(-1)
					if err := s.Apply(WriteDesc{ID: "o", Value: Int64(int64(r)), NewVersion: uint64(r + 1)}, tx); err != nil {
						t.Errorf("Apply by the holder: %v", err)
					}
					continue
				}
				if s.ProtectShared("o", tx) != nil {
					continue
				}
				readers.Add(1)
				if w := writers.Load(); w != 0 {
					t.Errorf("reader %s holds the row beside a writer", tx)
				}
				if _, _, err := s.Get("o"); err != nil {
					t.Errorf("Get under shared holds: %v", err)
				}
				readers.Add(-1)
				if err := s.Unprotect("o", tx); err != nil {
					t.Errorf("Unprotect by a reader: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	if x, sh := holds(s, "o"); x != "" || len(sh) != 0 {
		t.Fatalf("holds left after the run: exclusive %q shared %v", x, sh)
	}
}

// TestObjectStaysInItsSizeClass pins the per-row footprint: seeding and
// snapshots (the benchmark's setup_s) scale with it, and the shared mode
// must not move a row into a larger allocation class than it had.
func TestObjectStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(object{}); got > 80 {
		t.Fatalf("live object is %d bytes, budget 80", got)
	}
}

// TestReleasedHoldsLeaveNoOwnerBehind: a holder's name may be a view into the
// request that carried it, so a row must not keep it past the hold — not in a
// field, and not in the vacated tail of the shared-holder slice it reuses.
// The same goes for the key a request first created a row under.
func TestReleasedHoldsLeaveNoOwnerBehind(t *testing.T) {
	s := New()
	s.Seed("row", Int64(1))
	for _, tx := range []string{"t1", "t2", "t3"} {
		if err := s.ProtectShared("row", tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range []string{"t2", "t1", "t3"} {
		if err := s.Unprotect("row", tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ProtectShared("row", "t4"); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect("row", "t4", false); err != nil { // upgrade empties the slice
		t.Fatal(err)
	}
	if err := s.Apply(WriteDesc{ID: "row", Value: Int64(2), NewVersion: 2}, "t4"); err != nil {
		t.Fatal(err)
	}
	o := s.objs["row"]
	if o.protectedBy != "" {
		t.Fatalf("released row still names %q as exclusive holder", o.protectedBy)
	}
	for i, h := range o.shared[:cap(o.shared)] {
		if h.owner != "" {
			t.Fatalf("slot %d of the released row's holder slice still names %q", i, h.owner)
		}
	}

	frame := "a long request frame naming fresh/1 somewhere in it"
	id := ObjectID(frame[30:37])
	if err := s.Apply(WriteDesc{ID: id, Value: Int64(1), NewVersion: 1}, "t5"); err != nil {
		t.Fatal(err)
	}
	for key := range s.objs {
		if key == id && unsafe.StringData(string(key)) == unsafe.StringData(string(id)) {
			t.Fatal("the row created by a request is keyed by a view into that request")
		}
	}
}
