package acn

import (
	"sort"

	"qracn/internal/forensics"
	"qracn/internal/model"
	"qracn/internal/unitgraph"
)

// AlgoConfig tunes the algorithm module.
type AlgoConfig struct {
	// MergeThreshold is the relative abort-probability difference below
	// which adjacent dependent UnitBlocks merge (step 2). Default 0.3.
	MergeThreshold float64
	// Model converts contention levels into abort probabilities; the paper
	// allows custom models. Default model.DefaultModel().
	Model model.ContentionModel
	// DisableReattach / DisableMerge / DisableSort switch off individual
	// steps for ablation studies; all false in normal operation.
	DisableReattach bool
	DisableMerge    bool
	DisableSort     bool
}

func (c *AlgoConfig) fillDefaults() {
	if c.MergeThreshold == 0 {
		c.MergeThreshold = 0.3
	}
	if c.Model == nil {
		c.Model = model.DefaultModel()
	}
}

// Algorithm is the ACN algorithm module for one program. It is stateless
// between invocations: every run starts from the fully decomposed UnitBlock
// set (the paper's step 1 discards the previous Block sequence).
type Algorithm struct {
	an  *unitgraph.Analysis
	cfg AlgoConfig
}

// NewAlgorithm creates the algorithm module over a dependency model.
func NewAlgorithm(an *unitgraph.Analysis, cfg AlgoConfig) *Algorithm {
	cfg.fillDefaults()
	return &Algorithm{an: an, cfg: cfg}
}

// Audit explains one Recompose decision for the forensics pipeline: the
// contention inputs the algorithm saw, how many merges and reorders it
// performed, and every merge it considered but refused (with the closure that
// vetoed it).
type Audit struct {
	// Levels are the per-UnitBlock contention levels the decision was made
	// from (the raw level inputs, before the abort-probability model).
	Levels []forensics.AnchorLevel
	// Merges counts adjacent Block pairs folded together by step 2.
	Merges int
	// Reorders counts Blocks step 3 scheduled at a different position than
	// the dependency-order sequence step 2 produced.
	Reorders int
	// Refusals are the adjacent pairs step 2 examined and left unmerged.
	Refusals []forensics.Refusal
}

// Recompose produces a new Block sequence from the current contention levels
// (level is queried per UnitBlock). The three steps of §V-C3:
//
//  1. split every Block back into UnitBlocks and re-attach each local
//     operation to the most contended UnitBlock among those accessing an
//     object the operation manages;
//  2. merge adjacent dependent UnitBlocks with similar contention;
//  3. order the Blocks by increasing contention — hot spots as close to the
//     commit phase as possible — while preserving data dependencies.
func (alg *Algorithm) Recompose(level func(anchorID int) float64) *Composition {
	comp, _ := alg.RecomposeAudited(level)
	return comp
}

// RecomposeAudited is Recompose plus a decision audit describing what the
// algorithm did and why it declined the merges it declined.
func (alg *Algorithm) RecomposeAudited(level func(anchorID int) float64) (*Composition, *Audit) {
	an := alg.an
	n := an.NumAnchors
	aud := &Audit{Levels: make([]forensics.AnchorLevel, 0, n)}
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		l := level(i)
		probs[i] = alg.cfg.Model.AbortProb(l)
		aud.Levels = append(aud.Levels, forensics.AnchorLevel{Anchor: i, Level: l})
	}

	hosts := alg.reattach(probs)
	groups := baseGroups(an, hosts)
	groups = alg.merge(hosts, groups, probs, aud)
	preSort := make([]int, len(groups))
	for i, g := range groups {
		preSort[i] = g[0]
	}
	groups = alg.sortGroups(hosts, groups, probs)
	for i, g := range groups {
		if g[0] != preSort[i] {
			aud.Reorders++
		}
	}
	return build(an, hosts, groups), aud
}

// hotter imposes the deterministic total order used for host selection:
// higher abort probability wins, ties break toward the later UnitBlock
// (which reproduces the static attachment under uniform contention).
func hotter(probs []float64, a, b int) bool {
	if probs[a] != probs[b] {
		return probs[a] > probs[b]
	}
	return a > b
}

// reattach is step 1. Every statement returns to its UnitBlock; each
// attached operation then moves to the hottest eligible host. A candidate
// assignment that would make the Block-precedence graph cyclic is repaired
// by reverting operations (latest first) to their static hosts, which is
// always acyclic.
func (alg *Algorithm) reattach(probs []float64) []int {
	an := alg.an
	hosts := an.StaticHosts()
	if alg.cfg.DisableReattach {
		return hosts
	}
	for idx := range an.Stmts {
		info := &an.Stmts[idx]
		if info.IsAnchor || len(info.DepAnchors) == 0 {
			continue
		}
		best := info.DepAnchors[0]
		for _, cand := range info.DepAnchors[1:] {
			if hotter(probs, cand, best) {
				best = cand
			}
		}
		hosts[idx] = best
	}
	for !unitgraph.Acyclic(an.NumAnchors, an.BlockEdges(hosts)) {
		reverted := false
		for idx := len(an.Stmts) - 1; idx >= 0; idx-- {
			if !an.Stmts[idx].IsAnchor && hosts[idx] != an.Stmts[idx].StaticHost {
				hosts[idx] = an.Stmts[idx].StaticHost
				reverted = true
				break
			}
		}
		if !reverted {
			break // static assignment reached; guaranteed acyclic
		}
	}
	return hosts
}

// merge is step 2: scan the Block sequence in dependency order and merge
// each Block into its predecessor when the two are dependent and their
// abort probabilities differ by less than the threshold — they will move
// together and an invalidation of either re-executes only the merged Block.
// A merge that would deadlock the ordering (cycle through a Block between
// them) is skipped. aud, when non-nil, collects every merge and every
// refusal with the closure that vetoed it.
func (alg *Algorithm) merge(hosts []int, groups [][]int, probs []float64, aud *Audit) [][]int {
	if alg.cfg.DisableMerge || len(groups) <= 1 {
		return groups
	}
	an := alg.an
	edges := an.BlockEdges(hosts)
	dependent := func(ga, gb []int) bool {
		for _, a := range ga {
			for _, b := range gb {
				if edges[a][b] || edges[b][a] {
					return true
				}
			}
		}
		return false
	}
	heat := func(g []int) float64 {
		ps := make([]float64, len(g))
		for i, a := range g {
			ps[i] = probs[a]
		}
		return alg.cfg.Model.Combine(ps)
	}
	similar := func(ga, gb []int) bool {
		ha, hb := heat(ga), heat(gb)
		hi := ha
		if hb > hi {
			hi = hb
		}
		if hi == 0 {
			return true // both idle: merging removes nesting overhead
		}
		d := ha - hb
		if d < 0 {
			d = -d
		}
		return d <= alg.cfg.MergeThreshold*hi
	}
	refuse := func(ga, gb []int, reason forensics.RefusalReason) {
		if aud != nil {
			aud.Refusals = append(aud.Refusals, forensics.Refusal{
				First: ga[0], Second: gb[0], Reason: reason,
			})
		}
	}
	out := [][]int{groups[0]}
	for i := 1; i < len(groups); i++ {
		last := out[len(out)-1]
		dep := dependent(last, groups[i])
		if dep && similar(last, groups[i]) {
			candidate := append(append([]int(nil), last...), groups[i]...)
			sort.Ints(candidate)
			rest := append(append([][]int(nil), out[:len(out)-1]...), candidate)
			rest = append(rest, groups[i+1:]...)
			if groupsAcyclic(an, hosts, rest) {
				out[len(out)-1] = candidate
				if aud != nil {
					aud.Merges++
				}
				continue
			}
			// Merging would cycle the Block order through a group between
			// the pair: a dependency refusal.
			refuse(last, groups[i], forensics.RefusalDependency)
		} else if !dep {
			refuse(last, groups[i], forensics.RefusalDependency)
		} else {
			refuse(last, groups[i], forensics.RefusalSimilarity)
		}
		out = append(out, groups[i])
	}
	return out
}

// groupEdges contracts the block-precedence graph by group.
func groupEdges(an *unitgraph.Analysis, hosts []int, groups [][]int) (map[int]map[int]bool, map[int]int) {
	groupOf := make(map[int]int)
	for gi, g := range groups {
		for _, a := range g {
			groupOf[a] = gi
		}
	}
	out := make(map[int]map[int]bool)
	for u, vs := range an.BlockEdges(hosts) {
		for v := range vs {
			gu, gv := groupOf[u], groupOf[v]
			if gu == gv {
				continue
			}
			if out[gu] == nil {
				out[gu] = make(map[int]bool)
			}
			out[gu][gv] = true
		}
	}
	return out, groupOf
}

func groupsAcyclic(an *unitgraph.Analysis, hosts []int, groups [][]int) bool {
	edges, _ := groupEdges(an, hosts, groups)
	return unitgraph.Acyclic(len(groups), edges)
}

// sortGroups is step 3: a greedy topological order that always schedules the
// coolest ready group next, so contention increases toward the commit point
// while every dependency is preserved.
func (alg *Algorithm) sortGroups(hosts []int, groups [][]int, probs []float64) [][]int {
	if alg.cfg.DisableSort || len(groups) <= 1 {
		return groups
	}
	an := alg.an
	edges, _ := groupEdges(an, hosts, groups)

	heat := make([]float64, len(groups))
	for gi, g := range groups {
		ps := make([]float64, len(g))
		for i, a := range g {
			ps[i] = probs[a]
		}
		heat[gi] = alg.cfg.Model.Combine(ps)
	}

	indeg := make([]int, len(groups))
	for _, vs := range edges {
		for v := range vs {
			indeg[v]++
		}
	}
	var order [][]int
	scheduled := make([]bool, len(groups))
	for len(order) < len(groups) {
		best := -1
		for gi := range groups {
			if scheduled[gi] || indeg[gi] > 0 {
				continue
			}
			if best == -1 || heat[gi] < heat[best] ||
				(heat[gi] == heat[best] && groups[gi][0] < groups[best][0]) {
				best = gi
			}
		}
		if best == -1 {
			// Cycle (cannot happen: merge and reattach guarantee acyclic);
			// fall back to the original order for safety.
			return groups
		}
		scheduled[best] = true
		order = append(order, groups[best])
		for v := range edges[best] {
			indeg[v]--
		}
	}
	return order
}

// AnchorsByHeat is a diagnostic helper: UnitBlock IDs sorted hottest first
// under the given levels.
func (alg *Algorithm) AnchorsByHeat(level func(int) float64) []int {
	out := make([]int, alg.an.NumAnchors)
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool {
		return level(out[i]) > level(out[j])
	})
	return out
}
