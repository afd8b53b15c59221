package quorum

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewTreeShape(t *testing.T) {
	// 10 nodes, degree 3: levels of 1, 3, 6 (last level truncated).
	tr := NewTree(10, 3)
	if tr.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", tr.Levels())
	}
	if got := tr.Level(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("level 0 = %v", got)
	}
	if got := tr.Level(1); len(got) != 3 {
		t.Fatalf("level 1 = %v", got)
	}
	if got := tr.Level(2); len(got) != 6 {
		t.Fatalf("level 2 = %v", got)
	}
	if tr.Size() != 10 || len(tr.All()) != 10 {
		t.Fatalf("Size = %d, All = %v", tr.Size(), tr.All())
	}
}

func TestSingleNodeTree(t *testing.T) {
	tr := NewTree(1, 3)
	rq, err := tr.ReadQuorum(0, nil)
	if err != nil || len(rq) != 1 {
		t.Fatalf("ReadQuorum = %v, %v", rq, err)
	}
	wq, err := tr.WriteQuorum(0, nil)
	if err != nil || len(wq) != 1 {
		t.Fatalf("WriteQuorum = %v, %v", wq, err)
	}
}

func TestWriteQuorumCoversEveryLevel(t *testing.T) {
	tr := NewTree(13, 3) // levels 1,3,9
	wq, err := tr.WriteQuorum(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < tr.Levels(); l++ {
		level := tr.Level(l)
		inLevel := 0
		for _, id := range wq {
			for _, m := range level {
				if id == m {
					inLevel++
				}
			}
		}
		if need := len(level)/2 + 1; inLevel < need {
			t.Fatalf("level %d: %d members in write quorum, need %d", l, inLevel, need)
		}
	}
}

func TestReadWriteIntersectionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(n uint8, rseed, wseed uint16, deadMask uint32) bool {
		size := int(n%29) + 1
		tr := NewTree(size, 3)
		f := func(id NodeID) bool { return deadMask&(1<<(uint(id)%32)) == 0 }
		rq, errR := tr.ReadQuorum(int(rseed), f)
		wq, errW := tr.WriteQuorum(int(wseed), f)
		if errR != nil || errW != nil {
			return true // unavailability is allowed; intersection only required when both form
		}
		return Intersects(rq, wq)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteWriteIntersectionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(n uint8, s1, s2 uint16) bool {
		size := int(n%29) + 1
		tr := NewTree(size, 3)
		w1, err1 := tr.WriteQuorum(int(s1), nil)
		w2, err2 := tr.WriteQuorum(int(s2), nil)
		if err1 != nil || err2 != nil {
			return false // with no failures, write quorums must always form
		}
		return Intersects(w1, w2)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadQuorumFallsBackAcrossLevels(t *testing.T) {
	tr := NewTree(13, 3)
	// Kill the whole of level 1 (nodes 1..3): read quorums that prefer that
	// level must fall back to another level rather than fail.
	dead := map[NodeID]bool{1: true, 2: true, 3: true}
	f := func(id NodeID) bool { return !dead[id] }
	rq, err := tr.ReadQuorum(1, f) // seed 1 prefers level 1
	if err != nil {
		t.Fatalf("ReadQuorum: %v", err)
	}
	for _, id := range rq {
		if dead[id] {
			t.Fatalf("read quorum %v contains dead node %d", rq, id)
		}
	}
}

func TestWriteQuorumUnavailableWhenLevelLost(t *testing.T) {
	tr := NewTree(4, 3) // levels: [0], [1 2 3]
	f := func(id NodeID) bool { return id != 0 }
	if _, err := tr.WriteQuorum(0, f); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestWriteQuorumSurvivesLeafFailures(t *testing.T) {
	tr := NewTree(13, 3)                                        // level 2 has 9 nodes, majority 5
	dead := map[NodeID]bool{5: true, 6: true, 7: true, 8: true} // 4 leaf failures
	f := func(id NodeID) bool { return !dead[id] }
	wq, err := tr.WriteQuorum(0, f)
	if err != nil {
		t.Fatalf("WriteQuorum: %v", err)
	}
	for _, id := range wq {
		if dead[id] {
			t.Fatalf("write quorum contains dead node %d", id)
		}
	}
}

func TestSeedSpreadsLoad(t *testing.T) {
	tr := NewTree(13, 3)
	seen := map[NodeID]bool{}
	for seed := 0; seed < 20; seed++ {
		rq, err := tr.ReadQuorum(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range rq {
			seen[id] = true
		}
	}
	if len(seen) < 8 {
		t.Fatalf("rotation touched only %d distinct nodes: %v", len(seen), seen)
	}
}

func TestNegativeSeed(t *testing.T) {
	tr := NewTree(10, 3)
	if _, err := tr.ReadQuorum(-7, nil); err != nil {
		t.Fatalf("ReadQuorum(-7): %v", err)
	}
	if _, err := tr.WriteQuorum(-7, nil); err != nil {
		t.Fatalf("WriteQuorum(-7): %v", err)
	}
}

func TestIntersects(t *testing.T) {
	if Intersects([]NodeID{1, 2}, []NodeID{3, 4}) {
		t.Fatal("disjoint sets reported as intersecting")
	}
	if !Intersects([]NodeID{1, 2}, []NodeID{2, 3}) {
		t.Fatal("intersecting sets reported as disjoint")
	}
}

func TestNewTreePanics(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{0, 3}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTree(%d,%d) did not panic", tc.n, tc.d)
				}
			}()
			NewTree(tc.n, tc.d)
		}()
	}
}

// TestExhaustiveIntersection enumerates every tree size up to 15, every
// pair of seeds up to 12, and every single-node failure, checking the
// read/write and write/write intersection properties hold without
// exception — the deterministic complement to the randomized property
// tests above.
func TestExhaustiveIntersection(t *testing.T) {
	for n := 1; n <= 15; n++ {
		tr := NewTree(n, 3)
		for dead := -1; dead < n; dead++ {
			f := func(id NodeID) bool { return int(id) != dead }
			for s1 := 0; s1 < 12; s1++ {
				w1, errW1 := tr.WriteQuorum(s1, f)
				for s2 := 0; s2 < 12; s2++ {
					rq, errR := tr.ReadQuorum(s2, f)
					if errW1 == nil && errR == nil && !Intersects(w1, rq) {
						t.Fatalf("n=%d dead=%d: write(seed %d)=%v does not meet read(seed %d)=%v",
							n, dead, s1, w1, s2, rq)
					}
					w2, errW2 := tr.WriteQuorum(s2, f)
					if errW1 == nil && errW2 == nil && !Intersects(w1, w2) {
						t.Fatalf("n=%d dead=%d: write quorums %v and %v disjoint", n, dead, w1, w2)
					}
				}
			}
		}
	}
}

// TestQuorumMembersAlive verifies no quorum ever contains a node the alive
// filter rejects.
func TestQuorumMembersAlive(t *testing.T) {
	tr := NewTree(13, 3)
	f := func(id NodeID) bool { return id%3 != 1 }
	for seed := 0; seed < 30; seed++ {
		if q, err := tr.ReadQuorum(seed, f); err == nil {
			for _, id := range q {
				if !f(id) {
					t.Fatalf("read quorum %v contains filtered node %d", q, id)
				}
			}
		}
		if q, err := tr.WriteQuorum(seed, f); err == nil {
			for _, id := range q {
				if !f(id) {
					t.Fatalf("write quorum %v contains filtered node %d", q, id)
				}
			}
		}
	}
}

func TestSpareIsASameLevelNodeOutsideTheQuorum(t *testing.T) {
	// 10 nodes: levels {0}, {1,2,3}, {4..9}.
	tr := NewTree(10, 3)
	cases := []struct {
		name string
		q    []NodeID
		dead NodeID // -1: every node alive
		excl ExcludeSet
		want NodeID // -1: no spare
	}{
		{"level 1", []NodeID{2, 3}, -1, nil, 1},
		{"level 2 wraps after the last member", []NodeID{6, 7, 8, 9}, -1, nil, 4},
		{"excluded spare", []NodeID{2, 3}, -1, ExcludeSet{1: true}, -1},
		{"dead spare skipped", []NodeID{6, 7, 8, 9}, 4, nil, 5},
		{"excluded and dead", []NodeID{6, 7, 8, 9}, 5, ExcludeSet{4: true}, -1},
		{"root level", []NodeID{0}, -1, nil, -1},
		{"empty quorum", nil, -1, nil, -1},
	}
	for _, c := range cases {
		f := func(id NodeID) bool { return id != c.dead }
		got, ok := tr.Spare(c.q, f, c.excl)
		if want := c.want >= 0; ok != want || (ok && got != c.want) {
			t.Errorf("%s: Spare(%v) = %d, %v; want %d", c.name, c.q, got, ok, c.want)
		}
	}
}

// TestSpareStandsInForAnyMember: whichever member of a read quorum its spare
// replaces, the result is still a read quorum — it intersects every write
// quorum.
func TestSpareStandsInForAnyMember(t *testing.T) {
	for _, n := range []int{4, 10, 13} {
		tr := NewTree(n, 3)
		var writes [][]NodeID
		for seed := 0; seed < 12; seed++ {
			wq, err := tr.WriteQuorum(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			writes = append(writes, wq)
		}
		for seed := 0; seed < 12; seed++ {
			q, _ := tr.ReadQuorum(seed, nil)
			s, ok := tr.Spare(q, nil, nil)
			if !ok {
				if len(q) > 1 {
					t.Errorf("n=%d: read quorum %v has no spare", n, q)
				}
				continue
			}
			for i := range q {
				alt := append([]NodeID(nil), q...)
				alt[i] = s
				for _, wq := range writes {
					if !Intersects(alt, wq) {
						t.Fatalf("n=%d: %v with spare %d for %d misses write quorum %v", n, q, s, q[i], wq)
					}
				}
			}
		}
	}
}
