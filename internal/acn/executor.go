package acn

import (
	"context"
	"sync/atomic"

	"qracn/internal/contention"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
)

// Executor is the executor engine (§V-B): it maintains the current Block
// sequence for one program and runs each invocation through it, one
// closed-nested transaction per Block. The sequence can be swapped at any
// time by the Algorithm module; in-flight transactions finish on the
// sequence they started with.
//
// The decomposition decides what a conflict rolls back, not how many round
// trips a transaction pays: before running a Block's body the executor reads
// ahead, in one batched quorum round (Tx.Prefetch), every anchor object of
// this and any later Block whose identity is already computable — the
// UnitGraph names them — and that the transaction does not hold yet. The
// objects wait in the transaction's read-ahead buffer and join the read set
// of the Block that first touches them, so k serial first-access round trips
// collapse into one under any composition while each Block keeps owning
// exactly the reads its body makes.
type Executor struct {
	rt         *dtm.Runtime
	an         *unitgraph.Analysis
	comp       atomic.Pointer[compiled]
	noPrefetch atomic.Bool
	samplers   []*contention.Sampler
	// varDef maps each variable to the one statement that defines it.
	varDef map[txir.Var]int
}

// compiled pairs a composition with its read-ahead plan so a sequence swap
// replaces both atomically.
type compiled struct {
	comp *Composition
	// ahead lists every anchor in Block order; blockStart[b] is the position
	// of Block b's first anchor, so ahead[blockStart[b]:] are the anchors of
	// Block b and every later one.
	ahead      []aheadAnchor
	blockStart []int
	// planPos maps a statement index to its anchor's position in ahead (-1:
	// not an anchor), so a statement finds the ID its read-ahead evaluated.
	planPos []int
	// anchors maps the DTM block index (0: top-level context, k: k-th Sub)
	// to the representative UnitBlock (first anchor ID) the block executes;
	// -1 for a top-level context that only drives Subs. Stamped on every
	// transaction via Tx.SetBlockMeta so forensic abort events can name the
	// decomposition unit a conflict hit.
	anchors []int
}

// aheadAnchor is one anchor of the read-ahead plan.
type aheadAnchor struct {
	// stmt is the anchor's statement index.
	stmt int
	// evalAt is the earliest Block whose entry already sees, for every
	// variable the anchor's Ref consults, the value the Ref will see at
	// statement time: one past the Block holding the variable's definition,
	// 0 for a Ref over invocation parameters only.
	evalAt int
}

// SamplerCapacity bounds how many distinct recent object IDs are remembered
// per UnitBlock for contention estimation.
const SamplerCapacity = 32

// NewExecutor creates an executor with the given initial composition.
func NewExecutor(rt *dtm.Runtime, an *unitgraph.Analysis, initial *Composition) *Executor {
	e := &Executor{rt: rt, an: an}
	e.varDef = make(map[txir.Var]int)
	for idx := range an.Stmts {
		for _, v := range an.Stmts[idx].Stmt.DefsVars() {
			e.varDef[v] = idx
		}
	}
	e.comp.Store(e.compile(initial))
	e.samplers = make([]*contention.Sampler, an.NumAnchors)
	for i := range e.samplers {
		e.samplers[i] = contention.NewSampler(SamplerCapacity)
	}
	return e
}

// compile derives the read-ahead plan for a composition: for every anchor,
// the earliest Block entry at which its Ref can be evaluated. Each variable
// is assigned once (txir.Program.Validate), so from the entry of the Block
// after the one holding its definition, the Env holds the value the Ref will
// see at statement time, re-executions of a rolled-back Block included: a
// re-run repeats only later statements, and none of them redefines it.
func (e *Executor) compile(c *Composition) *compiled {
	blockOf := make(map[int]int, len(e.an.Stmts))
	for bi := range c.Blocks {
		for _, si := range c.Blocks[bi].StmtIdx {
			blockOf[si] = bi
		}
	}
	var plan []aheadAnchor
	blockStart := make([]int, len(c.Blocks))
	planPos := make([]int, len(e.an.Stmts))
	for i := range planPos {
		planPos[i] = -1
	}
	for bi := range c.Blocks {
		blockStart[bi] = len(plan)
		for _, si := range c.Blocks[bi].StmtIdx {
			if e.an.Stmts[si].IsAnchor {
				planPos[si] = len(plan)
				plan = append(plan, aheadAnchor{stmt: si, evalAt: e.evaluableAt(si, blockOf)})
			}
		}
	}
	repr := func(b *BlockSpec) int {
		if len(b.AnchorIDs) > 0 {
			return b.AnchorIDs[0]
		}
		return -1
	}
	var anchors []int
	if len(c.Blocks) == 1 {
		// Flat nesting: the single block IS the top-level context.
		anchors = []int{repr(&c.Blocks[0])}
	} else {
		anchors = make([]int, 0, len(c.Blocks)+1)
		anchors = append(anchors, -1) // top-level context: drives the Subs
		for bi := range c.Blocks {
			anchors = append(anchors, repr(&c.Blocks[bi]))
		}
	}
	return &compiled{comp: c, ahead: plan, blockStart: blockStart, planPos: planPos, anchors: anchors}
}

// evaluableAt returns the earliest Block whose entry sees the same variable
// values as anchor statement si's Ref will (see aheadAnchor.evalAt).
func (e *Executor) evaluableAt(si int, blockOf map[int]int) int {
	at := 0
	for _, v := range e.an.Stmts[si].Stmt.RefVars {
		// Validate guarantees a definition before every use.
		if b := blockOf[e.varDef[v]] + 1; b > at {
			at = b
		}
	}
	return at
}

// Analysis exposes the dependency model the executor runs over.
func (e *Executor) Analysis() *unitgraph.Analysis { return e.an }

// Runtime exposes the underlying DTM runtime.
func (e *Executor) Runtime() *dtm.Runtime { return e.rt }

// Composition returns the current Block sequence.
func (e *Executor) Composition() *Composition { return e.comp.Load().comp }

// SetComposition atomically swaps the Block sequence (Algorithm module
// output → Executor input) and recompiles its read-ahead plan.
func (e *Executor) SetComposition(c *Composition) { e.comp.Store(e.compile(c)) }

// SetPrefetch enables or disables the batched read-ahead (enabled by
// default; disabled, every first access is its own quorum round — the
// toggle exists for A/B benchmarks).
func (e *Executor) SetPrefetch(enabled bool) { e.noPrefetch.Store(!enabled) }

// AnchorSample returns the recent accesses of UnitBlock id, duplicates
// included, so contention estimates weight objects by access frequency.
func (e *Executor) AnchorSample(id int) []store.ObjectID { return e.samplers[id].Recent() }

// SampledIDs returns the union of recent object IDs across all UnitBlocks —
// the object list the dynamic module requests contention levels for.
func (e *Executor) SampledIDs() []store.ObjectID { return sampledIDs(e) }

// sampledIDs returns the distinct recent object IDs of the executors'
// UnitBlocks.
func sampledIDs(execs ...*Executor) []store.ObjectID {
	var out []store.ObjectID
	seen := make(map[store.ObjectID]bool)
	for _, e := range execs {
		for _, s := range e.samplers {
			for _, id := range s.Recent() {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// Execute runs one invocation of the program with the given parameters.
// params must contain every randomness the transaction needs (drawn before
// the first attempt) so that retries re-execute deterministically.
//
// Each Block runs under Tx.Sub, which re-runs the Block alone when a conflict
// stays inside it. When a Block's abort names an object an earlier Block
// first read, Execute rewinds instead of restarting: it rolls the attempt
// back to the savepoint it took at the entry of that earlier Block and runs
// on from there (rewind). A flat composition runs no Sub and has no earlier
// Block, so there every conflict restarts the transaction.
func (e *Executor) Execute(ctx context.Context, params map[string]any) error {
	comp := e.comp.Load()
	return e.rt.Atomic(ctx, func(tx *dtm.Tx) error {
		tx.SetBlockMeta(len(comp.anchors), comp.anchors)
		env := txir.NewEnv(params)
		// ids holds the anchors' object IDs by plan position, each evaluated
		// once: from its evalAt entry on an anchor's Ref cannot change until
		// a rewind re-runs an earlier Block, and rewind clears it then.
		var ids []store.ObjectID
		if !e.noPrefetch.Load() {
			ids = make([]store.ObjectID, len(comp.ahead))
		}
		blocks := comp.comp.Blocks
		if len(blocks) == 1 {
			// A single block is flat nesting: no sub-transaction needed.
			if err := e.readAhead(tx, env, comp, ids, 0); err != nil {
				return err
			}
			return e.runStmts(tx, env, comp, ids, blocks[0].StmtIdx)
		}
		// saves[i] is the savepoint taken at Block i's entry, kept for the
		// whole attempt; the array holds them without an allocation for up
		// to 16 Blocks.
		var buf [16]dtm.Checkpoint
		saves := buf[:0]
		for i, rewinds := 0, 0; i < len(blocks); {
			saves = append(saves[:i], tx.Checkpoint())
			err := tx.Sub(func(sub *dtm.Tx) error {
				if err := e.readAhead(sub, env, comp, ids, i); err != nil {
					return err
				}
				return e.runStmts(sub, env, comp, ids, blocks[i].StmtIdx)
			})
			if err == nil {
				i++
				continue
			}
			if i, err = e.rewind(tx, comp, ids, saves, err, rewinds); err != nil {
				return err
			}
			rewinds++
		}
		return nil
	})
}

// rewind answers the abort err of Block i = len(saves)-1, which Sub has
// already rolled back. The earliest first read of an object err names
// belongs to the Block j whose savepoint precedes it. When j is earlier than
// i, rewind rolls back to j's savepoint (Tx.RollBack, as the attempt's n-th
// rewind), drops every ID the read-ahead evaluated after j's entry, since
// the re-run Blocks define their Refs' variables anew, and returns j.
// Otherwise err stands. An object no earlier Block read, such as one an
// escalated Block read and rolled back itself, maps to i.
func (e *Executor) rewind(tx *dtm.Tx, comp *compiled, ids []store.ObjectID, saves []dtm.Checkpoint, err error, n int) (int, error) {
	ae, ok := dtm.AsAbort(err)
	if !ok {
		return 0, err
	}
	i := len(saves) - 1
	pos := saves[i].ReadLen() // a read of no earlier Block
	for _, id := range ae.Invalid {
		if p, ok := tx.ReadPosition(id); ok && p < pos {
			pos = p
		}
	}
	j := i
	for j > 0 && saves[j].ReadLen() > pos {
		j--
	}
	if j == i {
		return 0, err
	}
	if err := tx.RollBack(saves[j], ae, n); err != nil {
		return 0, err
	}
	for p := range ids {
		if comp.ahead[p].evalAt > j {
			ids[p] = ""
		}
	}
	return j, nil
}

// readAhead runs at the entry of Block bi, first execution or re-execution:
// one batched quorum round for every anchor object of this and any later
// Block that is evaluable here and not held yet — on a re-execution that
// includes the reads the rolled-back try discarded. A lone missing object is
// left to its own Read: that is a read round of the one object, the very
// request a read-ahead of it would send. ids is the attempt's evaluated-ID
// cache (nil: read-ahead off).
func (e *Executor) readAhead(tx *dtm.Tx, env *txir.Env, comp *compiled, ids []store.ObjectID, bi int) error {
	var need []store.ObjectID
	for i := comp.blockStart[bi]; i < len(ids); i++ {
		a := comp.ahead[i]
		if a.evalAt > bi {
			continue
		}
		if ids[i] == "" {
			ids[i] = e.an.Stmts[a.stmt].Stmt.Ref(env)
		}
		if !tx.Holds(ids[i]) {
			if need == nil {
				need = make([]store.ObjectID, 0, len(ids)-i)
			}
			need = append(need, ids[i])
		}
	}
	if len(need) < 2 {
		return nil
	}
	return tx.Prefetch(need...)
}

func (e *Executor) runStmts(tx *dtm.Tx, env *txir.Env, comp *compiled, ids []store.ObjectID, stmtIdx []int) error {
	for _, idx := range stmtIdx {
		if err := e.runStmt(tx, env, comp, ids, idx); err != nil {
			return err
		}
	}
	return nil
}

// ref is statement idx's object ID: the one the read-ahead already evaluated
// for its anchor, when it did (by compile's argument the Ref cannot say
// anything else now), or the Ref's own answer. ids is nil, and comp unused,
// where no read-ahead runs.
func (e *Executor) ref(env *txir.Env, comp *compiled, ids []store.ObjectID, idx int) store.ObjectID {
	if ids != nil {
		if p := comp.planPos[idx]; p >= 0 && ids[p] != "" {
			return ids[p]
		}
	}
	return e.an.Stmts[idx].Stmt.Ref(env)
}

func (e *Executor) runStmt(tx *dtm.Tx, env *txir.Env, comp *compiled, ids []store.ObjectID, idx int) error {
	info := &e.an.Stmts[idx]
	s := info.Stmt
	switch s.Kind {
	case txir.KindRead:
		id := e.ref(env, comp, ids, idx)
		if info.IsAnchor {
			e.samplers[info.AnchorID].Record(id)
		}
		v, err := tx.Read(id)
		if err != nil {
			return err
		}
		env.Set(s.Dst, v)
	case txir.KindWrite:
		id := e.ref(env, comp, ids, idx)
		if info.IsAnchor {
			e.samplers[info.AnchorID].Record(id)
		}
		if err := tx.Write(id, env.Get(s.Src)); err != nil {
			return err
		}
	case txir.KindLocal:
		if err := s.Fn(env); err != nil {
			return err
		}
	}
	return nil
}
