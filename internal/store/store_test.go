package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSeedAndGet(t *testing.T) {
	s := New()
	s.Seed("a", Int64(42))
	v, ver, err := s.Get("a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ver != 1 {
		t.Fatalf("version = %d, want 1", ver)
	}
	if AsInt64(v) != 42 {
		t.Fatalf("value = %v, want 42", v)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	_, _, err := s.Get("nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestGetReturnsClone(t *testing.T) {
	s := New()
	s.Seed("b", Bytes{1, 2, 3})
	v, _, err := s.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	b := v.(Bytes)
	b[0] = 99
	v2, _, err := s.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if v2.(Bytes)[0] != 1 {
		t.Fatal("Get leaked a reference to internal state")
	}
}

func TestProtectBlocksReadsAndOtherProtectors(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, _, err := s.Get("a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("Get on protected: err = %v, want ErrBusy", err)
	}
	if err := s.Protect("a", "tx2", false); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Protect: err = %v, want ErrBusy", err)
	}
	// Re-protecting by the same owner is idempotent.
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatalf("re-Protect by owner: %v", err)
	}
	if err := s.Unprotect("a", "tx1"); err != nil {
		t.Fatalf("Unprotect: %v", err)
	}
	if _, _, err := s.Get("a"); err != nil {
		t.Fatalf("Get after Unprotect: %v", err)
	}
}

func TestUnprotectWrongOwner(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatal(err)
	}
	if err := s.Unprotect("a", "tx2"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestProtectMissingObject(t *testing.T) {
	s := New()
	if err := s.Protect("new", "tx1", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := s.Protect("new", "tx1", true); err != nil {
		t.Fatalf("Protect with create: %v", err)
	}
	if err := s.Apply(WriteDesc{ID: "new", Value: Int64(7), NewVersion: 1}, "tx1"); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	v, ver, err := s.Get("new")
	if err != nil || ver != 1 || AsInt64(v) != 7 {
		t.Fatalf("Get = (%v,%d,%v)", v, ver, err)
	}
}

func TestApplyAdvancesVersionAndUnprotects(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "tx1", false); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(2), NewVersion: 2}, "tx1"); err != nil {
		t.Fatal(err)
	}
	v, ver, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || AsInt64(v) != 2 {
		t.Fatalf("got (%v, %d)", v, ver)
	}
}

func TestApplyIsMonotonic(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1))
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(5), NewVersion: 5}, "tx1"); err != nil {
		t.Fatal(err)
	}
	// A late-arriving older commit must not regress the replica.
	if err := s.Apply(WriteDesc{ID: "a", Value: Int64(3), NewVersion: 3}, "tx2"); err != nil {
		t.Fatal(err)
	}
	v, ver, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 5 || AsInt64(v) != 5 {
		t.Fatalf("regressed to (%v, %d)", v, ver)
	}
}

func TestValidate(t *testing.T) {
	s := New()
	s.Seed("a", Int64(1)) // version 1
	s.Seed("b", Int64(1))
	if err := s.Apply(WriteDesc{ID: "b", Value: Int64(2), NewVersion: 2}, "tx"); err != nil {
		t.Fatal(err)
	}
	inv := s.Validate([]ReadDesc{
		{ID: "a", Version: 1},
		{ID: "b", Version: 1},
		{ID: "c", Version: 4}, // unknown here: cannot invalidate
	})
	if len(inv) != 1 || inv[0] != "b" {
		t.Fatalf("invalid = %v, want [b]", inv)
	}
}

func TestIDAndIDs(t *testing.T) {
	if got := ID("district", 3, 7); got != "district/3/7" {
		t.Fatalf("ID = %q", got)
	}
	s := New()
	s.Seed("b", Int64(1))
	s.Seed("a", Int64(1))
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("IDs = %v", ids)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestIDMatchesPercentV: an ID is its class and "/%v" of each key, whatever
// path a key takes — strconv for integers, a copy for strings, fmt for the
// rest (store.Int64 prints through its String method) — however long the
// result.
func TestIDMatchesPercentV(t *testing.T) {
	long := strings.Repeat("x", 100)
	cases := [][]any{
		{},
		{0},
		{7, 300000, -12},
		{int64(1) << 40, int64(-5)},
		{int32(-3), uint(4), uint32(5), uint64(1) << 63},
		{"w", "", "a/b"},
		{Int64(5), Int64(-300)},
		{Float64(2.5), 3.25, true, nil},
		{long, 123456789, long},
	}
	for _, keys := range cases {
		want := "district"
		for _, k := range keys {
			want += fmt.Sprintf("/%v", k)
		}
		if got := ID("district", keys...); string(got) != want {
			t.Errorf("ID(district, %v) = %q, want %q", keys, got, want)
		}
	}
}

// TestCloneKeepsImmutableScalars: Clone hands an Int64, Float64 or String
// back as it is, nil as nil, and deep-copies everything else.
func TestCloneKeepsImmutableScalars(t *testing.T) {
	for _, v := range []Value{Int64(1 << 40), Float64(2.5), String("s"), nil} {
		if got := Clone(v); got != v {
			t.Fatalf("Clone(%v) = %v", v, got)
		}
	}
	b := Bytes{1}
	c := Clone(b).(Bytes)
	c[0] = 9
	tu := Tuple{Int64(1000), b}
	ct := Clone(tu).(Tuple)
	ct[1].(Bytes)[0] = 9
	if b[0] != 1 {
		t.Fatal("Clone of Bytes or of a Tuple holding them is shallow")
	}
	big := Value(Int64(1 << 40))
	if n := testing.AllocsPerRun(100, func() { big = Clone(big) }); n != 0 {
		t.Fatalf("Clone of an Int64 allocates %.0f times", n)
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	s := New()
	s.Seed("a", Bytes{9})
	snap := s.Snapshot()
	snap["a"].Value.(Bytes)[0] = 0
	v, _, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if v.(Bytes)[0] != 9 {
		t.Fatal("snapshot shared backing state with store")
	}
}

func TestTupleClone(t *testing.T) {
	tu := Tuple{Int64(1), Bytes{2}, nil}
	c := tu.CloneValue().(Tuple)
	c[1].(Bytes)[0] = 77
	if tu[1].(Bytes)[0] != 2 {
		t.Fatal("Tuple clone is shallow")
	}
}

func TestAccessorsZeroOnNil(t *testing.T) {
	if AsInt64(nil) != 0 || AsFloat64(nil) != 0 || AsString(nil) != "" {
		t.Fatal("nil accessors should return zero values")
	}
	if AsInt64(Int64(3)) != 3 || AsFloat64(Float64(2.5)) != 2.5 || AsString(String("x")) != "x" {
		t.Fatal("accessors mangled values")
	}
}

// Property: version never decreases under any interleaving of Apply calls.
func TestVersionMonotonicProperty(t *testing.T) {
	err := quick.Check(func(vers []uint16) bool {
		s := New()
		s.Seed("o", Int64(0))
		max := uint64(1)
		for i, nv := range vers {
			v := uint64(nv)
			_ = s.Apply(WriteDesc{ID: "o", Value: Int64(int64(v)), NewVersion: v}, fmt.Sprintf("t%d", i))
			if v > max {
				max = v
			}
			cur, ok := s.Version("o")
			if !ok || cur != max {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of protect/unprotect pairs, the store is
// usable, and a protect by X excludes protect by Y until release.
func TestProtectExclusionProperty(t *testing.T) {
	err := quick.Check(func(owners []bool) bool {
		s := New()
		s.Seed("o", Int64(0))
		held := ""
		for i, first := range owners {
			owner := "a"
			if !first {
				owner = "b"
			}
			err := s.Protect("o", owner, false)
			switch {
			case held == "" || held == owner:
				if err != nil {
					return false
				}
				held = owner
			default:
				if !errors.Is(err, ErrBusy) {
					return false
				}
			}
			if i%2 == 1 && held != "" {
				if err := s.Unprotect("o", held); err != nil {
					return false
				}
				held = ""
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProtectSingleWinner(t *testing.T) {
	s := New()
	s.Seed("o", Int64(0))
	const n = 64
	var wg sync.WaitGroup
	wins := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("tx%d", i)
			if err := s.Protect("o", owner, false); err == nil {
				wins <- owner
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("winners = %v, want exactly one", winners)
	}
}

func TestProtectTTLExpiry(t *testing.T) {
	now := time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := New()
	s.SetProtectTTL(time.Second, clock)
	s.Seed("a", Int64(1))
	if err := s.Protect("a", "dead-tx", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("fresh protection should block reads: %v", err)
	}
	now = now.Add(2 * time.Second)
	if _, _, err := s.Get("a"); err != nil {
		t.Fatalf("expired protection should not block reads: %v", err)
	}
	if err := s.Protect("a", "tx2", false); err != nil {
		t.Fatalf("expired protection should be reclaimable: %v", err)
	}
}
