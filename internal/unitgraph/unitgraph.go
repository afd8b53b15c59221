// Package unitgraph is ACN's static module. It performs the data-flow
// analysis the paper delegates to Soot (§V-C1): from a transaction program
// it derives the UnitGraph (statements + data-dependency edges), identifies
// the remote object accesses that define UnitBlocks, attaches every local
// operation to the latest UnitBlock that accesses a shared object the
// operation manages, and records the dependency model — which UnitBlocks'
// outputs each statement consumes and which statement orderings must be
// preserved by any recomposition.
package unitgraph

import (
	"fmt"
	"sort"
	"strings"

	"qracn/internal/txir"
)

// StmtInfo is the analysis result for one statement.
type StmtInfo struct {
	Stmt *txir.Stmt
	// IsAnchor marks the first access to a shared object: the statement
	// that gives its UnitBlock its remote interaction.
	IsAnchor bool
	// AnchorID is the UnitBlock ID for anchors, -1 otherwise.
	AnchorID int
	// DepAnchors lists the UnitBlocks whose objects this statement manages
	// (values flowing in through variables, plus the block owning the
	// object for re-reads and writes). For attached operations this is the
	// eligible-host set of the run-time re-attachment step; for anchors it
	// is the set of blocks that must execute first.
	DepAnchors []int
	// StaticHost is the UnitBlock hosting this statement in the initial
	// (static) composition: the anchor's own block, or for attached
	// operations the latest block in DepAnchors. It is -1 for floating
	// statements.
	StaticHost int
	// Floating marks a local operation that manages no shared object at
	// all (a pure parameter computation, or a chain over such). Floating
	// statements run at the head of whichever Block executes first and
	// impose no ordering constraints between Blocks, so they never pin an
	// independent segment in place.
	Floating bool
}

// Analysis is the static module's output: the dependency model.
type Analysis struct {
	Program *txir.Program
	Stmts   []StmtInfo
	// NumAnchors is the number of UnitBlocks.
	NumAnchors int
	// AnchorStmt maps UnitBlock ID to the anchor's statement index.
	AnchorStmt []int
	// AnchorClass maps UnitBlock ID to the anchored object's class label.
	AnchorClass []string
	// OrderEdges are statement-index pairs (i, j) meaning i must execute
	// before j under any recomposition (variable read-after-write — the only
	// variable dependency, as each variable is assigned once — and
	// object-access ordering).
	OrderEdges [][2]int
}

// Analyze runs the static module over a validated program.
func Analyze(p *txir.Program) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{Program: p, Stmts: make([]StmtInfo, len(p.Stmts))}

	varDef := make(map[txir.Var]int)      // var -> its one defining stmt
	objAnchor := make(map[string]int)     // objKey -> anchor ID
	objLastWriter := make(map[string]int) // objKey -> last writing stmt
	objReadersSinceWrite := make(map[string][]int)
	edgeSet := make(map[[2]int]bool)

	addEdge := func(i, j int) {
		e := [2]int{i, j}
		if !edgeSet[e] {
			edgeSet[e] = true
			a.OrderEdges = append(a.OrderEdges, e)
		}
	}

	// depsOf unions the anchor sets reachable through the used variables.
	depsOf := func(s *txir.Stmt) map[int]bool {
		deps := make(map[int]bool)
		for _, v := range s.UsesVars() {
			d := varDef[v] // Validate guarantees presence
			if a.Stmts[d].IsAnchor {
				deps[a.Stmts[d].AnchorID] = true
			} else {
				for _, id := range a.Stmts[d].DepAnchors {
					deps[id] = true
				}
			}
		}
		return deps
	}

	for idx, s := range p.Stmts {
		info := StmtInfo{Stmt: s, AnchorID: -1}
		deps := depsOf(s)

		// Variable-level ordering edges: read-after-write only, as each
		// variable is assigned once (Validate).
		for _, v := range s.UsesVars() {
			addEdge(varDef[v], idx)
		}

		key := s.ObjKey()
		isObjectStmt := s.Kind != txir.KindLocal
		if isObjectStmt {
			anchorID, seen := objAnchor[key]
			if !seen {
				// First access: this statement is a UnitBlock anchor.
				info.IsAnchor = true
				info.AnchorID = a.NumAnchors
				info.StaticHost = info.AnchorID
				objAnchor[key] = info.AnchorID
				a.AnchorStmt = append(a.AnchorStmt, idx)
				a.AnchorClass = append(a.AnchorClass, s.Class)
				a.NumAnchors++
			} else {
				deps[anchorID] = true
				addEdge(p.Stmts[a.AnchorStmt[anchorID]].Index, idx)
			}
			// Object-level ordering: writes order against previous readers
			// and the previous writer; reads order against the previous
			// writer (they must observe its buffered value).
			if w, ok := objLastWriter[key]; ok {
				addEdge(w, idx)
			}
			if s.Kind == txir.KindWrite {
				for _, r := range objReadersSinceWrite[key] {
					addEdge(r, idx)
				}
				objLastWriter[key] = idx
				objReadersSinceWrite[key] = nil
			} else {
				objReadersSinceWrite[key] = append(objReadersSinceWrite[key], idx)
			}
		}

		info.DepAnchors = sortedKeys(deps)
		if !info.IsAnchor {
			if len(info.DepAnchors) > 0 {
				info.StaticHost = info.DepAnchors[len(info.DepAnchors)-1]
			} else {
				// A local over parameters only (or a chain over such): its
				// variables are assigned once, so it floats to the head of
				// whichever Block runs first.
				info.Floating = true
				info.StaticHost = -1
			}
		}
		for _, v := range s.DefsVars() {
			varDef[v] = idx
		}
		a.Stmts[idx] = info
	}

	if a.NumAnchors == 0 {
		return nil, fmt.Errorf("unitgraph: %s: program has no remote object access", p.Name)
	}
	return a, nil
}

// FloatingStmts returns the indices of floating statements in program order.
func (a *Analysis) FloatingStmts() []int {
	var out []int
	for i := range a.Stmts {
		if a.Stmts[i].Floating {
			out = append(out, i)
		}
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// StaticHosts returns the initial host assignment (statement index →
// UnitBlock ID).
func (a *Analysis) StaticHosts() []int {
	hosts := make([]int, len(a.Stmts))
	for i, s := range a.Stmts {
		hosts[i] = s.StaticHost
	}
	return hosts
}

// BlockMembers groups statement indices by host under a given assignment,
// each group sorted ascending (original execution order within a block).
// Floating statements (host -1) are excluded; compositions prepend them to
// their first Block.
func (a *Analysis) BlockMembers(hosts []int) map[int][]int {
	members := make(map[int][]int, a.NumAnchors)
	for idx, h := range hosts {
		if h < 0 {
			continue
		}
		members[h] = append(members[h], idx)
	}
	for _, m := range members {
		sort.Ints(m)
	}
	return members
}

// BlockEdges translates statement-level ordering constraints into
// UnitBlock-level precedence edges under a host assignment: an edge u→v
// (u ≠ v) means block u must execute before block v. Forced anchor
// dependencies are included.
func (a *Analysis) BlockEdges(hosts []int) map[int]map[int]bool {
	edges := make(map[int]map[int]bool, a.NumAnchors)
	add := func(u, v int) {
		if u == v {
			return
		}
		if edges[u] == nil {
			edges[u] = make(map[int]bool)
		}
		edges[u][v] = true
	}
	for _, e := range a.OrderEdges {
		// Floating statements execute before every Block; edges touching
		// them constrain nothing at Block granularity.
		if a.Stmts[e[0]].Floating || a.Stmts[e[1]].Floating {
			continue
		}
		add(hosts[e[0]], hosts[e[1]])
	}
	for id, stmtIdx := range a.AnchorStmt {
		for _, dep := range a.Stmts[stmtIdx].DepAnchors {
			add(dep, id)
		}
	}
	return edges
}

// SCC computes the strongly connected components of a block-precedence
// graph and returns them in topological order of the condensation (every
// edge between components points from an earlier to a later component).
// Members within a component are sorted ascending. Composition builders use
// it to contract unsatisfiable circular precedence constraints — which the
// static attachment rules can produce when operations on one object spread
// across blocks — into single Blocks, where original program order satisfies
// every constraint.
func SCC(n int, edges map[int]map[int]bool) [][]int {
	// Tarjan's algorithm, iterative bookkeeping kept simple via recursion
	// (block counts are tiny).
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0

	sortedNeighbors := func(u int) []int {
		out := make([]int, 0, len(edges[u]))
		for v := range edges[u] {
			out = append(out, v)
		}
		sort.Ints(out)
		return out
	}

	var strongconnect func(u int)
	strongconnect = func(u int) {
		index[u] = next
		low[u] = next
		next++
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range sortedNeighbors(u) {
			if index[v] == -1 {
				strongconnect(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
			} else if onStack[v] && index[v] < low[u] {
				low[u] = index[v]
			}
		}
		if low[u] == index[u] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == u {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for u := 0; u < n; u++ {
		if index[u] == -1 {
			strongconnect(u)
		}
	}

	// Order the condensation topologically, preferring original program
	// order (smallest member first) among ready components, so an
	// unconstrained graph keeps the programmer's sequence.
	compOf := make([]int, n)
	for ci, comp := range comps {
		for _, u := range comp {
			compOf[u] = ci
		}
	}
	indeg := make([]int, len(comps))
	cedges := make([]map[int]bool, len(comps))
	for u, vs := range edges {
		for v := range vs {
			cu, cv := compOf[u], compOf[v]
			if cu == cv {
				continue
			}
			if cedges[cu] == nil {
				cedges[cu] = make(map[int]bool)
			}
			if !cedges[cu][cv] {
				cedges[cu][cv] = true
				indeg[cv]++
			}
		}
	}
	scheduled := make([]bool, len(comps))
	out := make([][]int, 0, len(comps))
	for len(out) < len(comps) {
		best := -1
		for ci := range comps {
			if scheduled[ci] || indeg[ci] > 0 {
				continue
			}
			if best == -1 || comps[ci][0] < comps[best][0] {
				best = ci
			}
		}
		scheduled[best] = true
		out = append(out, comps[best])
		for cv := range cedges[best] {
			indeg[cv]--
		}
	}
	return out
}

// Acyclic reports whether the block-precedence graph has no cycles.
func Acyclic(n int, edges map[int]map[int]bool) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = gray
		for v := range edges[u] {
			switch color[v] {
			case gray:
				return false
			case white:
				if !visit(v) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	for u := 0; u < n; u++ {
		if color[u] == white && !visit(u) {
			return false
		}
	}
	return true
}

// Dot renders the UnitGraph (statements, data-dependency edges, UnitBlock
// grouping) in Graphviz format for inspection.
func (a *Analysis) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", a.Program.Name)
	members := a.BlockMembers(a.StaticHosts())
	for id := 0; id < a.NumAnchors; id++ {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"UnitBlock %d (%s)\";\n", id, id, a.AnchorClass[id])
		for _, idx := range members[id] {
			fmt.Fprintf(&b, "    s%d [label=%q];\n", idx, a.Stmts[idx].Stmt.String())
		}
		fmt.Fprintf(&b, "  }\n")
	}
	for _, e := range a.OrderEdges {
		fmt.Fprintf(&b, "  s%d -> s%d;\n", e[0], e[1])
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}
