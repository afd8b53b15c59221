// Package txirtest generates random, valid transaction programs for
// property-based testing of the static analysis, the recomposition
// algorithm, and the executors. Generated programs are pure functions of
// the initial shared state: every local computation is deterministic
// arithmetic, so two executions from equal states must commit equal states.
package txirtest

import (
	"fmt"
	"math/rand"

	"qracn/internal/store"
	"qracn/internal/txir"
)

// DerivedFanout bounds the key space of "insert" statements: a derived
// object's ID is ("derived", stmtIndex, k) with k < DerivedFanout.
const DerivedFanout = 3

// RandomProgram builds a random straight-line transaction over nObjects
// shared integers: reads, re-reads, deterministic arithmetic locals,
// parameter-free (floating) locals, write-backs, and inserts of derived
// objects. The program always starts with a read, so it has at least one
// UnitBlock.
func RandomProgram(rng *rand.Rand, nObjects, nStmts int) *txir.Program {
	p := txir.NewProgram(fmt.Sprintf("rand-%d", rng.Int63()))

	readObjs := make([]bool, nObjects)
	var intVars []txir.Var
	varSeq := 0

	newVar := func() txir.Var {
		varSeq++
		return txir.Var(fmt.Sprintf("v%d", varSeq))
	}
	objRef := func(i int) (string, string, txir.RefFunc) {
		id := store.IntID("obj", i)
		return "obj", fmt.Sprintf("k%d", i), func(*txir.Env) store.ObjectID { return id }
	}

	first := rng.Intn(nObjects)
	cls, key, ref := objRef(first)
	v := newVar()
	p.Read(cls, key, ref, v)
	readObjs[first] = true
	intVars = append(intVars, v)

	for s := 1; s < nStmts; s++ {
		switch rng.Intn(5) {
		case 0: // read (possibly a re-read)
			i := rng.Intn(nObjects)
			cls, key, ref := objRef(i)
			v := newVar()
			p.Read(cls, key, ref, v)
			readObjs[i] = true
			intVars = append(intVars, v)
		case 1: // local: combine 1..3 vars deterministically
			k := 1 + rng.Intn(3)
			uses := make([]txir.Var, 0, k)
			for j := 0; j < k; j++ {
				uses = append(uses, intVars[rng.Intn(len(intVars))])
			}
			mult := int64(1 + rng.Intn(5))
			out := newVar()
			usesCopy := append([]txir.Var(nil), uses...)
			p.Local(func(e *txir.Env) error {
				var acc int64
				for _, u := range usesCopy {
					acc += e.GetInt64(u)
				}
				e.SetInt64(out, acc*mult+1)
				return nil
			}, usesCopy, []txir.Var{out})
			intVars = append(intVars, out)
		case 2: // constant local: no shared-object dependency (floats)
			c := int64(rng.Intn(100))
			out := newVar()
			p.Local(func(e *txir.Env) error {
				e.SetInt64(out, c)
				return nil
			}, nil, []txir.Var{out})
			intVars = append(intVars, out)
		case 3: // write an already-read object from an existing var
			var candidates []int
			for i, read := range readObjs {
				if read {
					candidates = append(candidates, i)
				}
			}
			i := candidates[rng.Intn(len(candidates))]
			cls, key, ref := objRef(i)
			p.Write(cls, key, ref, intVars[rng.Intn(len(intVars))])
		case 4: // insert a fresh derived object
			src := intVars[rng.Intn(len(intVars))]
			id := store.IntID("derived", s, rng.Intn(DerivedFanout))
			p.Write("derived", fmt.Sprintf("d%d", s),
				func(*txir.Env) store.ObjectID { return id }, src)
		}
	}
	return p
}

// Seed returns the initial state RandomProgram programs run over.
func Seed(nObjects int) map[store.ObjectID]store.Value {
	objs := make(map[store.ObjectID]store.Value, nObjects)
	for i := 0; i < nObjects; i++ {
		objs[store.IntID("obj", i)] = store.Int64(int64(10 + i))
	}
	return objs
}
