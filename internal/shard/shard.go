// Package shard partitions the keyspace across independent quorum groups.
// Each group is a disjoint set of server nodes with its own tree quorum, WAL
// directory, and contention meters; an object's owning group is derived from
// a stable hash of its ID. Clients fetch the Map from any node (via
// wire.KindShardMap), cache it under its version number, and route every
// read, write, and prefetch through it. Transactions that touch a single
// group keep the one-group fast path; cross-group transactions drive the
// coordinator-crash-safe 2PC across every touched group, with in-doubt
// resolution scoped per group by stamping the prepare's quorum membership
// with the union of all touched groups' write quorums.
package shard

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// DefaultDegree is the tree-quorum degree each group uses unless told
// otherwise (the paper's ternary tree).
const DefaultDegree = 3

// Map is a static, versioned shard map: the hash-partitioned keyspace and
// the quorum group owning each partition. A Map is immutable after New; the
// version number lets clients cache it and lets a future control plane swap
// it atomically.
type Map struct {
	version uint64
	degree  int
	groups  []*Group
	home    map[quorum.NodeID]int
}

// Group is one quorum group: a disjoint set of nodes with its own tree
// quorum, built over the group's node IDs in the order it lists them.
type Group struct {
	id    int
	nodes []quorum.NodeID
	tree  *quorum.Tree
}

// New builds a Map from explicit group memberships. Groups must be non-empty
// and pairwise disjoint; degree <= 0 uses DefaultDegree.
func New(version uint64, degree int, groups [][]quorum.NodeID) (*Map, error) {
	if degree <= 0 {
		degree = DefaultDegree
	}
	if degree < 2 {
		return nil, fmt.Errorf("shard: degree must be >= 2, got %d", degree)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: map needs at least one group")
	}
	m := &Map{version: version, degree: degree, home: make(map[quorum.NodeID]int)}
	for gi, nodes := range groups {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("shard: group %d is empty", gi)
		}
		g := &Group{id: gi, nodes: append([]quorum.NodeID(nil), nodes...)}
		for _, id := range g.nodes {
			if id < 0 {
				return nil, fmt.Errorf("shard: group %d names negative node %d", gi, id)
			}
			if prev, dup := m.home[id]; dup {
				if prev == gi {
					return nil, fmt.Errorf("shard: group %d lists node %d twice", gi, id)
				}
				return nil, fmt.Errorf("shard: node %d appears in groups %d and %d", id, prev, gi)
			}
			m.home[id] = gi
		}
		g.tree = quorum.NewTreeOf(g.nodes, degree)
		m.groups = append(m.groups, g)
	}
	return m, nil
}

// NewUniform partitions nodes 0..nodes-1 into the given number of contiguous
// groups of near-equal size. It panics on invalid arguments (a programming
// error, matching quorum.NewTree).
func NewUniform(nodes, shards, degree int) *Map {
	if shards < 1 {
		panic("shard: need at least one shard")
	}
	if nodes < shards {
		panic(fmt.Sprintf("shard: %d nodes cannot form %d groups", nodes, shards))
	}
	groups := make([][]quorum.NodeID, shards)
	next := 0
	for gi := 0; gi < shards; gi++ {
		// Spread the remainder over the first nodes%shards groups.
		size := nodes / shards
		if gi < nodes%shards {
			size++
		}
		for i := 0; i < size; i++ {
			groups[gi] = append(groups[gi], quorum.NodeID(next))
			next++
		}
	}
	m, err := New(1, degree, groups)
	if err != nil {
		panic("shard: " + err.Error())
	}
	return m
}

// Version is the map's cache-coherence version number.
func (m *Map) Version() uint64 { return m.version }

// Degree is the tree-quorum degree every group uses.
func (m *Map) Degree() int { return m.degree }

// NumShards is the number of quorum groups.
func (m *Map) NumShards() int { return len(m.groups) }

// NumNodes is the total node count across all groups.
func (m *Map) NumNodes() int { return len(m.home) }

// ShardFor maps an object to its owning shard: FNV-1a over the ID, mod the
// group count. Stable across processes and restarts.
func (m *Map) ShardFor(id store.ObjectID) int {
	if len(m.groups) == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() % uint64(len(m.groups)))
}

// Group returns the group with the given shard index.
func (m *Map) Group(s int) *Group { return m.groups[s] }

// Part is one shard's slice of a partitioned ID list.
type Part struct {
	Shard int
	Group *Group
	IDs   []store.ObjectID
}

// Partition splits ids by owning shard. Parts come back in shard order,
// shards no ID hashes to are omitted, and input order is preserved within
// each part.
func (m *Map) Partition(ids []store.ObjectID) []Part {
	byShard := make(map[int][]store.ObjectID)
	for _, id := range ids {
		s := m.ShardFor(id)
		byShard[s] = append(byShard[s], id)
	}
	out := make([]Part, 0, len(byShard))
	for s := 0; s < len(m.groups); s++ {
		if part, ok := byShard[s]; ok {
			out = append(out, Part{Shard: s, Group: m.groups[s], IDs: part})
		}
	}
	return out
}

// GroupOf returns the group owning the given object.
func (m *Map) GroupOf(id store.ObjectID) *Group { return m.groups[m.ShardFor(id)] }

// HomeOf returns the shard a node belongs to, or -1 for unknown nodes.
func (m *Map) HomeOf(node quorum.NodeID) int {
	if s, ok := m.home[node]; ok {
		return s
	}
	return -1
}

// Memberships returns a deep copy of every group's node list, in shard
// order — the wire representation of the map.
func (m *Map) Memberships() [][]quorum.NodeID {
	out := make([][]quorum.NodeID, len(m.groups))
	for gi, g := range m.groups {
		out[gi] = append([]quorum.NodeID(nil), g.nodes...)
	}
	return out
}

// ID is the group's shard index within its map.
func (g *Group) ID() int { return g.id }

// Nodes returns a copy of the group's global node IDs.
func (g *Group) Nodes() []quorum.NodeID {
	return append([]quorum.NodeID(nil), g.nodes...)
}

// Size is the group's node count.
func (g *Group) Size() int { return len(g.nodes) }

// Contains reports whether the global node belongs to this group.
func (g *Group) Contains(id quorum.NodeID) bool { return slices.Contains(g.nodes, id) }

// Tree is the group's tree quorum, over its node IDs: every quorum it
// selects is in the IDs callers address.
func (g *Group) Tree() *quorum.Tree { return g.tree }

// String renders the map in the flag format ParseGroups accepts:
// semicolon-separated groups of comma-separated node IDs in the order each
// group lists them (its tree's order), runs ascending by one compressed to
// a-b ranges. Example: "0-2;5,3,4".
func (m *Map) String() string {
	var b strings.Builder
	for gi, g := range m.groups {
		if gi > 0 {
			b.WriteByte(';')
		}
		nodes := g.nodes
		for i := 0; i < len(nodes); {
			j := i
			for j+1 < len(nodes) && nodes[j+1] == nodes[j]+1 {
				j++
			}
			if i > 0 {
				b.WriteByte(',')
			}
			if j > i+1 {
				fmt.Fprintf(&b, "%d-%d", nodes[i], nodes[j])
			} else {
				b.WriteString(strconv.Itoa(int(nodes[i])))
				if j == i+1 {
					fmt.Fprintf(&b, ",%d", nodes[j])
				}
			}
			i = j + 1
		}
	}
	return b.String()
}

// ParseGroups parses the flag format rendered by String: groups separated by
// ';', members separated by ',', each member a node ID or an a-b range.
func ParseGroups(s string) ([][]quorum.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("shard: empty map spec")
	}
	var groups [][]quorum.NodeID
	for _, gs := range strings.Split(s, ";") {
		var nodes []quorum.NodeID
		for _, tok := range strings.Split(gs, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			if lo, hi, ok := strings.Cut(tok, "-"); ok {
				a, err1 := strconv.Atoi(strings.TrimSpace(lo))
				b, err2 := strconv.Atoi(strings.TrimSpace(hi))
				if err1 != nil || err2 != nil || a > b {
					return nil, fmt.Errorf("shard: bad range %q", tok)
				}
				for n := a; n <= b; n++ {
					nodes = append(nodes, quorum.NodeID(n))
				}
				continue
			}
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("shard: bad node id %q", tok)
			}
			nodes = append(nodes, quorum.NodeID(n))
		}
		if len(nodes) == 0 {
			return nil, fmt.Errorf("shard: empty group in spec %q", s)
		}
		groups = append(groups, nodes)
	}
	return groups, nil
}

// Parse builds a Map from the flag format with the given version and degree.
func Parse(s string, version uint64, degree int) (*Map, error) {
	groups, err := ParseGroups(s)
	if err != nil {
		return nil, err
	}
	return New(version, degree, groups)
}
