package shard

import (
	"fmt"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

func TestNewUniformPartitions(t *testing.T) {
	m := NewUniform(10, 3, 3)
	if m.NumShards() != 3 || m.NumNodes() != 10 {
		t.Fatalf("got %d shards, %d nodes", m.NumShards(), m.NumNodes())
	}
	seen := map[quorum.NodeID]bool{}
	total := 0
	for s := 0; s < m.NumShards(); s++ {
		g := m.Group(s)
		if g.ID() != s {
			t.Fatalf("group %d reports id %d", s, g.ID())
		}
		for _, id := range g.Nodes() {
			if seen[id] {
				t.Fatalf("node %d in two groups", id)
			}
			seen[id] = true
			if m.HomeOf(id) != s {
				t.Fatalf("HomeOf(%d) = %d, want %d", id, m.HomeOf(id), s)
			}
			total++
		}
		if g.Size() < 3 || g.Size() > 4 {
			t.Fatalf("group %d size %d not near-equal", s, g.Size())
		}
	}
	if total != 10 {
		t.Fatalf("groups cover %d of 10 nodes", total)
	}
	if m.HomeOf(99) != -1 {
		t.Fatalf("HomeOf(unknown) = %d, want -1", m.HomeOf(99))
	}
}

func TestNewRejectsOverlapAndEmpty(t *testing.T) {
	if _, err := New(1, 3, [][]quorum.NodeID{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("overlapping groups accepted")
	}
	if _, err := New(1, 3, [][]quorum.NodeID{{0}, {}}); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := New(1, 3, nil); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := New(1, 3, [][]quorum.NodeID{{0, 0}}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestShardForStableAndCovering(t *testing.T) {
	m := NewUniform(12, 4, 3)
	hit := make([]int, 4)
	for i := 0; i < 256; i++ {
		id := store.ID("acct", i)
		s := m.ShardFor(id)
		if s != m.ShardFor(id) {
			t.Fatalf("ShardFor(%s) unstable", id)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("ShardFor(%s) = %d out of range", id, s)
		}
		if m.GroupOf(id).ID() != s {
			t.Fatalf("GroupOf disagrees with ShardFor for %s", id)
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d never hit across 256 uniform keys", s)
		}
	}
}

func TestGroupQuorumsAreLocalAndTranslated(t *testing.T) {
	m := NewUniform(12, 3, 3) // groups {0..3} {4..7} {8..11}
	g := m.Group(1)
	for seed := 0; seed < 8; seed++ {
		rq, err := g.Tree().ReadQuorumExcluding(seed, nil, nil)
		if err != nil {
			t.Fatalf("read quorum seed %d: %v", seed, err)
		}
		wq, err := g.Tree().WriteQuorumExcluding(seed, nil, nil)
		if err != nil {
			t.Fatalf("write quorum seed %d: %v", seed, err)
		}
		for _, q := range [][]quorum.NodeID{rq, wq} {
			for _, id := range q {
				if !g.Contains(id) {
					t.Fatalf("seed %d: quorum member %d outside group 1 (%v)", seed, id, g.Nodes())
				}
			}
		}
		if !quorum.Intersects(rq, wq) {
			t.Fatalf("seed %d: read quorum %v misses write quorum %v", seed, rq, wq)
		}
	}
}

func TestGroupQuorumExclusionAndAlive(t *testing.T) {
	m := NewUniform(12, 3, 3)
	g := m.Group(2) // nodes 8..11: tree levels [8] [9 10 11]
	// Root down: write quorum impossible, read quorum falls to level 1.
	down := quorum.NodeID(8)
	aliveF := func(id quorum.NodeID) bool { return id != down }
	if _, err := g.Tree().WriteQuorumExcluding(0, aliveF, nil); err == nil {
		t.Fatal("write quorum formed without the root level")
	}
	rq, err := g.Tree().ReadQuorumExcluding(0, aliveF, nil)
	if err != nil {
		t.Fatalf("read quorum with root down: %v", err)
	}
	for _, id := range rq {
		if id == down {
			t.Fatalf("dead node %d selected", down)
		}
	}
	// Global exclusions naming other groups' nodes must not shrink this one.
	excl := quorum.ExcludeSet{0: true, 4: true}
	if _, err := g.Tree().WriteQuorumExcluding(0, nil, excl); err != nil {
		t.Fatalf("foreign exclusions broke the quorum: %v", err)
	}
	// Excluding a group member does bite.
	if _, err := g.Tree().WriteQuorumExcluding(0, nil, quorum.ExcludeSet{8: true}); err == nil {
		t.Fatal("write quorum formed without its excluded root")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []*Map{
		NewUniform(10, 1, 3),
		NewUniform(10, 3, 3),
		NewUniform(12, 4, 3),
	}
	for _, m := range cases {
		s := m.String()
		back, err := Parse(s, m.Version(), m.Degree())
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if fmt.Sprint(back.Memberships()) != fmt.Sprint(m.Memberships()) {
			t.Fatalf("round trip %q: %v != %v", s, back.Memberships(), m.Memberships())
		}
	}
	if _, err := ParseGroups("0-2;;3-5"); err == nil {
		t.Fatal("empty group parsed")
	}
	if _, err := ParseGroups("a,b"); err == nil {
		t.Fatal("garbage parsed")
	}
	g, err := ParseGroups("0,2-4,7;9")
	if err != nil {
		t.Fatalf("mixed spec: %v", err)
	}
	want := [][]quorum.NodeID{{0, 2, 3, 4, 7}, {9}}
	if fmt.Sprint(g) != fmt.Sprint(want) {
		t.Fatalf("mixed spec parsed to %v, want %v", g, want)
	}
}

// TestStringKeepsTreeOrder: a group's tree is its listed order, so String
// renders members in that order and Parse of it builds the same trees.
func TestStringKeepsTreeOrder(t *testing.T) {
	for spec, want := range map[string]string{
		"5,3,0,1;2,4":       "5,3,0,1;2,4",
		"7,0,1,2,3;9,8":     "7,0-3;9,8",
		"2,3,4,0,1;6;5":     "2-4,0,1;6;5",
		"0-2,4,3;10-12,9,5": "0-2,4,3;10-12,9,5",
	} {
		m, err := Parse(spec, 1, 3)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		got := m.String()
		if got != want {
			t.Errorf("String of %q = %q, want %q", spec, got, want)
		}
		back, err := Parse(got, 1, 3)
		if err != nil {
			t.Fatalf("parse %q: %v", got, err)
		}
		if fmt.Sprint(back.Memberships()) != fmt.Sprint(m.Memberships()) {
			t.Errorf("round trip of %q: %v != %v", spec, back.Memberships(), m.Memberships())
		}
		for gi := 0; gi < m.NumShards(); gi++ {
			if a, b := back.Group(gi).Tree().Level(0), m.Group(gi).Tree().Level(0); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("round trip of %q moved group %d's root from %v to %v", spec, gi, b, a)
			}
		}
	}
}

func TestGroupSpareIsInGlobalIDs(t *testing.T) {
	// Group 1's tree of four is {20} and {21, 22, 23}.
	m, err := New(1, 3, [][]quorum.NodeID{{10, 11, 12, 13}, {20, 21, 22, 23}})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Group(1)
	not23 := func(id quorum.NodeID) bool { return id != 23 }
	cases := []struct {
		name string
		q    []quorum.NodeID
		f    quorum.AliveFunc
		excl quorum.ExcludeSet
		want quorum.NodeID // -1: no spare
	}{
		{"same level, outside q", []quorum.NodeID{21, 22}, nil, nil, 23},
		{"excluded", []quorum.NodeID{21, 22}, nil, quorum.ExcludeSet{23: true}, -1},
		{"dead", []quorum.NodeID{21, 22}, not23, nil, -1},
		{"root level", []quorum.NodeID{20}, nil, nil, -1},
	}
	for _, c := range cases {
		got, ok := g.Tree().Spare(c.q, c.f, c.excl)
		if want := c.want >= 0; ok != want || (ok && got != c.want) {
			t.Errorf("%s: Spare(%v) = %d, %v; want %d", c.name, c.q, got, ok, c.want)
		}
	}
}
