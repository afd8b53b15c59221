// Package quorum implements the logical-tree quorum construction QR-DTM
// borrows from Agrawal and El Abbadi's tree quorum protocol, in the
// level-majority form the paper describes: the replica nodes are arranged in
// a complete logical ternary tree; a read quorum is a majority of the nodes
// at one level of the tree, while a write quorum is a majority of the nodes
// at every level. Any read quorum therefore intersects any write quorum (two
// majorities of the same level always share a node), and any two write
// quorums intersect at every level — the properties QR-DTM's incremental
// validation and one-copy serializability rest on.
package quorum

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a quorum (server) node.
type NodeID int

// ErrUnavailable is returned when the alive nodes cannot form the requested
// quorum (some tree level has lost its majority).
var ErrUnavailable = errors.New("quorum: not enough alive nodes to form a quorum")

// Tree is an immutable logical tree over a list of server nodes, filled
// breadth-first in list order so that level boundaries are implicit.
type Tree struct {
	nodes  []NodeID
	levels [][]NodeID // consecutive runs of nodes
}

// NewTree arranges nodes 0..n-1 into a complete tree of the given degree
// (the paper uses degree 3). It panics if n < 1 or degree < 2.
func NewTree(n, degree int) *Tree {
	nodes := make([]NodeID, max(n, 0))
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return NewTreeOf(nodes, degree)
}

// NewTreeOf arranges the listed nodes into a complete tree of the given
// degree in list order: nodes[0] is the root, the next degree nodes are
// level 1, and so on. A quorum group's tree is built over its own node IDs
// this way. The list must not name a node twice. It panics if the list is
// empty or degree < 2.
func NewTreeOf(nodes []NodeID, degree int) *Tree {
	if len(nodes) == 0 {
		panic("quorum: need at least one node")
	}
	if degree < 2 {
		panic("quorum: degree must be >= 2")
	}
	t := &Tree{nodes: slices.Clone(nodes)}
	for width, next := 1, 0; next < len(nodes); width *= degree {
		end := min(next+width, len(nodes))
		t.levels = append(t.levels, t.nodes[next:end:end])
		next = end
	}
	return t
}

// Levels reports the number of levels in the tree.
func (t *Tree) Levels() int { return len(t.levels) }

// Size reports the number of nodes.
func (t *Tree) Size() int { return len(t.nodes) }

// Level returns a copy of the node IDs at level l (0 = root).
func (t *Tree) Level(l int) []NodeID {
	return slices.Clone(t.levels[l])
}

// All returns every node ID.
func (t *Tree) All() []NodeID { return slices.Clone(t.nodes) }

// AliveFunc reports whether a node is believed reachable. A nil AliveFunc
// means all nodes are alive.
type AliveFunc func(NodeID) bool

func alive(f AliveFunc, id NodeID) bool { return f == nil || f(id) }

// ExcludeSet names nodes a single operation must not select again — the
// members that just errored during one of its earlier attempts. It narrows
// one selection without touching the shared alive view, so a failover retry
// can never re-pick the node that failed it even before the failure
// detector trips.
type ExcludeSet map[NodeID]bool

// majority returns floor(n/2)+1.
func majority(n int) int { return n/2 + 1 }

// levelMajority appends to dst a majority-size subset of alive, non-excluded
// nodes at one level, starting the circular scan at seed so different
// clients spread load across level members. False means the level has lost
// its majority.
func (t *Tree) levelMajority(dst []NodeID, l, seed int, f AliveFunc, excl ExcludeSet) ([]NodeID, bool) {
	level := t.levels[l]
	need := len(dst) + majority(len(level))
	for i := 0; i < len(level) && len(dst) < need; i++ {
		id := level[(seed+i)%len(level)]
		if alive(f, id) && !excl[id] {
			dst = append(dst, id)
		}
	}
	return dst, len(dst) == need
}

// ReadQuorum returns a read quorum: a majority of the nodes at one level.
// The preferred level is derived from seed so different clients use
// different levels; if the preferred level has lost its majority, the other
// levels are tried in order. ErrUnavailable is returned when no level can
// supply a majority of alive nodes.
func (t *Tree) ReadQuorum(seed int, f AliveFunc) ([]NodeID, error) {
	return t.ReadQuorumExcluding(seed, f, nil)
}

// ReadQuorumExcluding is ReadQuorum restricted to nodes outside excl.
// Every quorum it returns is a plain level majority, so the read/write
// intersection property is untouched: exclusion only narrows which majority
// is picked.
func (t *Tree) ReadQuorumExcluding(seed int, f AliveFunc, excl ExcludeSet) ([]NodeID, error) {
	if seed < 0 {
		seed = -seed
	}
	nl := len(t.levels)
	for off := 0; off < nl; off++ {
		l := (seed + off) % nl
		if q, ok := t.levelMajority(make([]NodeID, 0, majority(len(t.levels[l]))), l, seed, f, excl); ok {
			return q, nil
		}
	}
	return nil, ErrUnavailable
}

// Spare returns a node that can stand in for any one member of read quorum q:
// a node of q's level that is outside q and excl and alive under f. Any
// len(q) distinct nodes of that level are again a majority of it, hence a
// read quorum. The scan starts after q's last member, where the level
// majority's own scan stopped. False means the level has no such node; the
// root's level never has one.
func (t *Tree) Spare(q []NodeID, f AliveFunc, excl ExcludeSet) (NodeID, bool) {
	if len(q) == 0 {
		return 0, false
	}
	last := q[len(q)-1]
	for _, level := range t.levels {
		at := slices.Index(level, last)
		if at < 0 {
			continue
		}
		for i := 1; i < len(level); i++ {
			id := level[(at+i)%len(level)]
			if alive(f, id) && !excl[id] && !slices.Contains(q, id) {
				return id, true
			}
		}
		break
	}
	return 0, false
}

// WriteQuorum returns a write quorum: a majority of the nodes at every
// level. ErrUnavailable is returned when some level has lost its majority.
func (t *Tree) WriteQuorum(seed int, f AliveFunc) ([]NodeID, error) {
	return t.WriteQuorumExcluding(seed, f, nil)
}

// WriteQuorumExcluding is WriteQuorum restricted to nodes outside excl.
func (t *Tree) WriteQuorumExcluding(seed int, f AliveFunc, excl ExcludeSet) ([]NodeID, error) {
	if seed < 0 {
		seed = -seed
	}
	size := 0
	for _, level := range t.levels {
		size += majority(len(level))
	}
	out := make([]NodeID, 0, size)
	for l := range t.levels {
		var ok bool
		if out, ok = t.levelMajority(out, l, seed, f, excl); !ok {
			return nil, fmt.Errorf("level %d: %w", l, ErrUnavailable)
		}
	}
	return out, nil
}

// Intersects reports whether the two quorums share at least one node.
func Intersects(a, b []NodeID) bool {
	set := make(map[NodeID]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if set[id] {
			return true
		}
	}
	return false
}
