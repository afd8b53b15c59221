package acn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qracn/internal/model"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
)

func noop(*txir.Env) error { return nil }

func sref(id string) txir.RefFunc {
	return func(*txir.Env) store.ObjectID { return store.ObjectID(id) }
}

// bankProgram is the paper's Fig. 1 flat transaction: branch1, branch2,
// account1, account2, with withdraw/deposit locals and write-backs. Branch
// statements come first, exactly as the motivating example.
func bankProgram() *txir.Program {
	p := txir.NewProgram("bank-transfer")
	p.Local(func(e *txir.Env) error { // amt := param
		e.SetInt64("amt", int64(e.ParamInt("amount")))
		return nil
	}, nil, []txir.Var{"amt"})
	p.Read("branch", "b1", sref("branch/1"), "b1") // anchor 0
	p.Read("branch", "b2", sref("branch/2"), "b2") // anchor 1
	p.Local(func(e *txir.Env) error {              // withdraw/deposit on branches
		e.SetInt64("nb1", e.GetInt64("b1")-e.GetInt64("amt"))
		e.SetInt64("nb2", e.GetInt64("b2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"b1", "b2", "amt"}, []txir.Var{"nb1", "nb2"})
	p.Write("branch", "b1", sref("branch/1"), "nb1")
	p.Write("branch", "b2", sref("branch/2"), "nb2")
	p.Read("account", "a1", sref("account/1"), "a1") // anchor 2
	p.Read("account", "a2", sref("account/2"), "a2") // anchor 3
	p.Local(func(e *txir.Env) error {
		e.SetInt64("na1", e.GetInt64("a1")-e.GetInt64("amt"))
		e.SetInt64("na2", e.GetInt64("a2")+e.GetInt64("amt"))
		return nil
	}, []txir.Var{"a1", "a2", "amt"}, []txir.Var{"na1", "na2"})
	p.Write("account", "a1", sref("account/1"), "na1")
	p.Write("account", "a2", sref("account/2"), "na2")
	return p
}

func analyzeBank(t *testing.T) *unitgraph.Analysis {
	t.Helper()
	an, err := unitgraph.Analyze(bankProgram())
	if err != nil {
		t.Fatal(err)
	}
	if an.NumAnchors != 4 {
		t.Fatalf("NumAnchors = %d, want 4", an.NumAnchors)
	}
	return an
}

func levels(m map[int]float64) func(int) float64 {
	return func(id int) float64 { return m[id] }
}

func TestFlatComposition(t *testing.T) {
	an := analyzeBank(t)
	c := Flat(an)
	if c.NumBlocks() != 1 {
		t.Fatalf("flat blocks = %d", c.NumBlocks())
	}
	if len(c.Blocks[0].StmtIdx) != len(an.Stmts) {
		t.Fatalf("flat composition covers %d stmts, want %d", len(c.Blocks[0].StmtIdx), len(an.Stmts))
	}
	for i, idx := range c.Blocks[0].StmtIdx {
		if idx != i {
			t.Fatalf("flat stmt order %v", c.Blocks[0].StmtIdx)
		}
	}
}

func TestStaticComposition(t *testing.T) {
	an := analyzeBank(t)
	c := Static(an)
	if c.NumBlocks() != 4 {
		t.Fatalf("static blocks = %d, want 4", c.NumBlocks())
	}
	for i, b := range c.Blocks {
		if len(b.AnchorIDs) != 1 || b.AnchorIDs[0] != i {
			t.Fatalf("static block %d anchors = %v", i, b.AnchorIDs)
		}
	}
	assertCoverage(t, an, c)
}

func TestManualComposition(t *testing.T) {
	an := analyzeBank(t)
	// The programmer's Fig. 2 configuration: accounts first, branches last
	// in one closed-nested block.
	c, err := Manual(an, [][]int{{2}, {3}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 3 {
		t.Fatalf("blocks = %d", c.NumBlocks())
	}
	assertCoverage(t, an, c)
}

func TestManualValidation(t *testing.T) {
	an := analyzeBank(t)
	if _, err := Manual(an, [][]int{{0, 1}}); err == nil {
		t.Fatal("missing anchors accepted")
	}
	if _, err := Manual(an, [][]int{{0, 1}, {2, 3}, {0}}); err == nil {
		t.Fatal("duplicate anchor accepted")
	}
	if _, err := Manual(an, [][]int{{0, 1, 2, 9}}); err == nil {
		t.Fatal("unknown anchor accepted")
	}
}

func TestManualDependencyViolation(t *testing.T) {
	p := txir.NewProgram("dep")
	p.Read("x", "x", sref("x"), "v")                    // anchor 0
	p.Read("y", "y", func(e *txir.Env) store.ObjectID { // anchor 1 depends on 0
		return store.ID("y", e.GetInt64("v"))
	}, "w", "v")
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Manual(an, [][]int{{1}, {0}}); err == nil {
		t.Fatal("dependency-violating manual composition accepted")
	}
}

// assertCoverage checks the invariants every composition must satisfy:
// each anchor in exactly one block, each statement in exactly one block,
// statements ascending within a block, and block order respecting the
// dependency model.
func assertCoverage(t *testing.T, an *unitgraph.Analysis, c *Composition) {
	t.Helper()
	anchorSeen := map[int]int{}
	stmtSeen := map[int]int{}
	blockOf := map[int]int{}
	for bi, b := range c.Blocks {
		for _, a := range b.AnchorIDs {
			anchorSeen[a]++
			blockOf[a] = bi
		}
		prev := -1
		for _, s := range b.StmtIdx {
			stmtSeen[s]++
			if s <= prev {
				t.Fatalf("block %d stmts not ascending: %v", bi, b.StmtIdx)
			}
			prev = s
		}
	}
	if len(anchorSeen) != an.NumAnchors {
		t.Fatalf("anchors covered: %d of %d", len(anchorSeen), an.NumAnchors)
	}
	for a, n := range anchorSeen {
		if n != 1 {
			t.Fatalf("anchor %d in %d blocks", a, n)
		}
	}
	if len(stmtSeen) != len(an.Stmts) {
		t.Fatalf("stmts covered: %d of %d", len(stmtSeen), len(an.Stmts))
	}
	for s, n := range stmtSeen {
		if n != 1 {
			t.Fatalf("stmt %d in %d blocks", s, n)
		}
	}
	// Dependency preservation: reconstruct the host assignment from the
	// composition and check every block edge points forward.
	hosts := make([]int, len(an.Stmts))
	for bi, b := range c.Blocks {
		anchorOfBlock := map[int]bool{}
		for _, a := range b.AnchorIDs {
			anchorOfBlock[a] = true
		}
		_ = bi
		for _, s := range b.StmtIdx {
			// Host anchor is whichever anchor of this block the stmt maps
			// to; for edge checking we only need block membership, so use
			// the first anchor as representative.
			hosts[s] = b.AnchorIDs[0]
		}
	}
	blockPos := map[int]int{}
	for bi, b := range c.Blocks {
		for _, a := range b.AnchorIDs {
			blockPos[a] = bi
		}
	}
	for _, e := range an.OrderEdges {
		bu, bv := blockPos[hosts[e[0]]], blockPos[hosts[e[1]]]
		if bu > bv {
			t.Fatalf("order edge %v violated: stmt blocks %d > %d (comp %s)", e, bu, bv, c)
		}
	}
}

func TestRecomposeMovesHotBlocksLast(t *testing.T) {
	an := analyzeBank(t)
	alg := NewAlgorithm(an, AlgoConfig{})
	// Branches (anchors 0,1) hot, accounts (2,3) cold — the motivating
	// scenario. The recomposition must execute accounts before branches.
	comp := alg.Recompose(levels(map[int]float64{0: 50, 1: 48, 2: 1, 3: 1}))
	assertCoverage(t, an, comp)
	pos := map[int]int{}
	for bi, b := range comp.Blocks {
		for _, a := range b.AnchorIDs {
			pos[a] = bi
		}
	}
	if !(pos[2] < pos[0] && pos[3] < pos[0] && pos[2] < pos[1] && pos[3] < pos[1]) {
		t.Fatalf("hot branches not moved toward commit: %s", comp)
	}
}

func TestRecomposeReattachesLocalToHotBlock(t *testing.T) {
	// T = {Read(A)->a, Read(B)->b, c=a+b}: statically c lives with Read(B).
	// When A is much hotter, c must move to A's block and B's block must
	// execute first (the §V-C1 closing example).
	p := txir.NewProgram("reattach")
	p.Read("A", "A", sref("A"), "a")
	p.Read("B", "B", sref("B"), "b")
	p.Local(noop, []txir.Var{"a", "b"}, []txir.Var{"c"})
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if an.Stmts[2].StaticHost != 1 {
		t.Fatalf("static host = %d, want 1", an.Stmts[2].StaticHost)
	}
	alg := NewAlgorithm(an, AlgoConfig{MergeThreshold: 0.01})
	comp := alg.Recompose(levels(map[int]float64{0: 100, 1: 1}))
	assertCoverage(t, an, comp)
	if len(comp.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2 (%s)", len(comp.Blocks), comp)
	}
	// Block order: B first (cool), then A with the local attached.
	if comp.Blocks[0].AnchorIDs[0] != 1 || comp.Blocks[1].AnchorIDs[0] != 0 {
		t.Fatalf("order = %s, want B then A", comp)
	}
	if got := comp.Blocks[1].StmtIdx; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("A's block stmts = %v, want [0 2] (local reattached)", got)
	}
}

func TestRecomposeMergesSimilarDependentBlocks(t *testing.T) {
	// chain: Read(X) -> Read(Y keyed by X's value): dependent anchors.
	p := txir.NewProgram("chain")
	p.Read("X", "X", sref("X"), "x")
	p.Read("Y", "Y", func(e *txir.Env) store.ObjectID {
		return store.ID("Y", e.GetInt64("x"))
	}, "y", "x")
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewAlgorithm(an, AlgoConfig{MergeThreshold: 0.3})
	comp := alg.Recompose(levels(map[int]float64{0: 10, 1: 10}))
	assertCoverage(t, an, comp)
	if len(comp.Blocks) != 1 {
		t.Fatalf("similar dependent blocks not merged: %s", comp)
	}

	// Dissimilar contention: keep them apart.
	comp = alg.Recompose(levels(map[int]float64{0: 100, 1: 0}))
	assertCoverage(t, an, comp)
	if len(comp.Blocks) != 2 {
		t.Fatalf("dissimilar blocks merged: %s", comp)
	}
}

func TestRecomposeDoesNotMergeIndependentBlocks(t *testing.T) {
	p := txir.NewProgram("indep")
	p.Read("X", "X", sref("X"), "x")
	p.Read("Y", "Y", sref("Y"), "y")
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewAlgorithm(an, AlgoConfig{})
	comp := alg.Recompose(levels(map[int]float64{0: 10, 1: 10}))
	if len(comp.Blocks) != 2 {
		t.Fatalf("independent blocks merged: %s", comp)
	}
}

func TestRecomposeCycleRepair(t *testing.T) {
	// Y's value keys X's access (forced Y before X); a local uses both
	// values. With Y much hotter the local would prefer Y, which would
	// require X before Y — a cycle. The algorithm must repair it by
	// reverting the local to its static host X.
	p := txir.NewProgram("cycle")
	p.Read("Y", "Y", sref("Y"), "yv") // anchor 0
	p.Read("X", "X", func(e *txir.Env) store.ObjectID {
		return store.ID("X", e.GetInt64("yv"))
	}, "xv", "yv") // anchor 1, forced after 0
	p.Local(noop, []txir.Var{"xv", "yv"}, []txir.Var{"z"})
	an, err := unitgraph.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewAlgorithm(an, AlgoConfig{MergeThreshold: 0.01})
	comp := alg.Recompose(levels(map[int]float64{0: 100, 1: 1}))
	assertCoverage(t, an, comp)
	// Whatever the contention says, Y must still execute before X.
	if comp.Blocks[0].AnchorIDs[0] != 0 {
		t.Fatalf("forced dependency broken: %s", comp)
	}
}

func TestAblationSwitches(t *testing.T) {
	an := analyzeBank(t)
	lv := levels(map[int]float64{0: 50, 1: 48, 2: 1, 3: 1})

	noSort := NewAlgorithm(an, AlgoConfig{DisableSort: true, DisableMerge: true, DisableReattach: true})
	comp := noSort.Recompose(lv)
	assertCoverage(t, an, comp)
	for i, b := range comp.Blocks {
		if b.AnchorIDs[0] != i {
			t.Fatalf("with all steps disabled the static order must hold: %s", comp)
		}
	}

	noMerge := NewAlgorithm(an, AlgoConfig{DisableMerge: true})
	comp = noMerge.Recompose(levels(map[int]float64{0: 10, 1: 10, 2: 10, 3: 10}))
	if len(comp.Blocks) != 4 {
		t.Fatalf("DisableMerge ignored: %s", comp)
	}
}

func TestRecomposeUniformContentionKeepsValidity(t *testing.T) {
	an := analyzeBank(t)
	alg := NewAlgorithm(an, AlgoConfig{})
	comp := alg.Recompose(levels(map[int]float64{}))
	assertCoverage(t, an, comp)
}

// Property: for random contention assignments the recomposition always
// produces a valid, dependency-preserving composition.
func TestRecomposeValidityProperty(t *testing.T) {
	an := analyzeBank(t)
	alg := NewAlgorithm(an, AlgoConfig{})
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lv := map[int]float64{}
		for i := 0; i < an.NumAnchors; i++ {
			lv[i] = rng.Float64() * 100
		}
		comp := alg.Recompose(levels(lv))
		// Reuse assertCoverage's checks without t.Fatal by re-validating.
		return validComposition(an, comp)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func validComposition(an *unitgraph.Analysis, c *Composition) bool {
	stmtSeen := map[int]bool{}
	blockPos := map[int]int{}
	hostBlock := map[int]int{}
	for bi, b := range c.Blocks {
		prev := -1
		for _, s := range b.StmtIdx {
			if stmtSeen[s] || s <= prev {
				return false
			}
			stmtSeen[s] = true
			prev = s
			hostBlock[s] = bi
		}
		for _, a := range b.AnchorIDs {
			if _, dup := blockPos[a]; dup {
				return false
			}
			blockPos[a] = bi
		}
	}
	if len(stmtSeen) != len(an.Stmts) || len(blockPos) != an.NumAnchors {
		return false
	}
	for _, e := range an.OrderEdges {
		if hostBlock[e[0]] > hostBlock[e[1]] {
			return false
		}
	}
	return true
}

func TestAnchorsByHeat(t *testing.T) {
	an := analyzeBank(t)
	alg := NewAlgorithm(an, AlgoConfig{})
	order := alg.AnchorsByHeat(levels(map[int]float64{0: 1, 1: 9, 2: 5, 3: 0}))
	if order[0] != 1 || order[3] != 3 {
		t.Fatalf("AnchorsByHeat = %v", order)
	}
}

func TestCompositionString(t *testing.T) {
	an := analyzeBank(t)
	if s := Static(an).String(); s != "[0][1][2][3]" {
		t.Fatalf("String = %q", s)
	}
}

func TestAlgoConfigDefaults(t *testing.T) {
	cfg := AlgoConfig{}
	cfg.fillDefaults()
	if cfg.MergeThreshold != 0.3 || cfg.Model == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if _, ok := cfg.Model.(model.ExpModel); !ok {
		t.Fatalf("default model = %T", cfg.Model)
	}
}
