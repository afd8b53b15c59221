package quorum

import (
	"slices"
	"testing"
)

// TestTreeOfIsNewTreeRelabelled: a tree built over a node list selects what
// NewTree(len(list)) selects, mapped through the list — every read quorum,
// write quorum and found spare, with up to one dead and one excluded member.
// A quorum group's tree is such a list, so a group selects what the old
// index-space tree selected, translated.
func TestTreeOfIsNewTreeRelabelled(t *testing.T) {
	var lists [][]NodeID
	for _, n := range []int{1, 4, 10, 13} {
		identity, reversed, spread := make([]NodeID, n), make([]NodeID, n), make([]NodeID, n)
		for i := range n {
			identity[i], reversed[n-1-i], spread[i] = NodeID(i), NodeID(i), NodeID(100+3*((i*7)%n))
		}
		lists = append(lists, identity, reversed, spread)
	}
	lists = append(lists, []NodeID{5, 3, 0, 1, 9, 7}, []NodeID{20, 21, 22, 23})
	last := 2999
	if testing.Short() {
		last = 299
	}
	relabel := func(list, q []NodeID) []NodeID {
		out := make([]NodeID, len(q))
		for i, id := range q {
			out[i] = list[id]
		}
		return out
	}
	for _, list := range lists {
		ref, got := NewTree(len(list), 3), NewTreeOf(list, 3)
		// dead and excl index the list; -1 names no member.
		for dead := -1; dead < len(list); dead++ {
			refAlive := func(id NodeID) bool { return int(id) != dead }
			gotAlive := func(id NodeID) bool { return dead < 0 || id != list[dead] }
			for excl := -1; excl < len(list); excl++ {
				var refExcl, gotExcl ExcludeSet
				if excl >= 0 {
					refExcl, gotExcl = ExcludeSet{NodeID(excl): true}, ExcludeSet{list[excl]: true}
				}
				for seed := -3; seed <= last; seed++ {
					wr, errR := ref.ReadQuorumExcluding(seed, refAlive, refExcl)
					rq, err := got.ReadQuorumExcluding(seed, gotAlive, gotExcl)
					if (err == nil) != (errR == nil) || !slices.Equal(rq, relabel(list, wr)) {
						t.Fatalf("%v dead %d excl %d seed %d: read quorum %v, %v; want %v, %v", list, dead, excl, seed, rq, err, relabel(list, wr), errR)
					}
					ww, errW := ref.WriteQuorumExcluding(seed, refAlive, refExcl)
					wq, err := got.WriteQuorumExcluding(seed, gotAlive, gotExcl)
					if (err == nil) != (errW == nil) || !slices.Equal(wq, relabel(list, ww)) {
						t.Fatalf("%v dead %d excl %d seed %d: write quorum %v, %v; want %v, %v", list, dead, excl, seed, wq, err, relabel(list, ww), errW)
					}
					ws, okW := ref.Spare(wr, refAlive, refExcl)
					s, ok := got.Spare(rq, gotAlive, gotExcl)
					if ok != okW || (ok && s != list[ws]) {
						t.Fatalf("%v dead %d excl %d seed %d: spare of %v is %d, %v; want %d, %v", list, dead, excl, seed, rq, s, ok, list[ws], okW)
					}
				}
			}
		}
	}
}

// TestWriteQuorumAllocs: a write quorum is one slice, sized once for every
// level's majority; a read quorum is one slice too.
func TestWriteQuorumAllocs(t *testing.T) {
	tr := NewTree(10, 3)
	seed := 0
	if allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := tr.WriteQuorumExcluding(seed, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("WriteQuorumExcluding: %.1f allocs, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := tr.ReadQuorumExcluding(seed, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("ReadQuorumExcluding: %.1f allocs, want <= 1", allocs)
	}
}
