package acn_test

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/store"
	"qracn/internal/txir/txirtest"
	"qracn/internal/unitgraph"
)

// finalState reads every object a program could have touched through a
// fresh transaction, giving the canonical committed state of the cluster.
func finalState(t *testing.T, c *cluster.Cluster, nObjects, nStmts int) map[store.ObjectID]int64 {
	t.Helper()
	rt := c.Runtime(77, dtm.Config{Seed: 77})
	out := make(map[store.ObjectID]int64)
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		for i := 0; i < nObjects; i++ {
			v, err := tx.Read(store.ID("obj", i))
			if err != nil {
				return err
			}
			out[store.ID("obj", i)] = store.AsInt64(v)
		}
		for s := 0; s < nStmts; s++ {
			for j := 0; j < txirtest.DerivedFanout; j++ {
				id := store.ID("derived", s, j)
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				if v != nil {
					out[id] = store.AsInt64(v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecomposedExecutionEquivalence is the semantic-preservation property
// at the heart of ACN's correctness argument (§V-A: "changing the order of
// the operations will not affect the correctness of the transaction"):
// for random programs and random contention assignments, executing the
// recomposed Block sequence must leave the cluster in exactly the state
// flat execution produces. The same must hold for the checkpointing
// executor.
func TestRecomposedExecutionEquivalence(t *testing.T) {
	const (
		nObjects = 6
		nStmts   = 14
	)
	trials := 25
	if s := os.Getenv("QRACN_EQUIV_TRIALS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			trials = n
		}
	}
	nontrivial := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		prog := txirtest.RandomProgram(rng, nObjects, nStmts)
		an, err := unitgraph.Analyze(prog)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, prog)
		}

		// A random contention assignment drives the recomposition.
		alg := acn.NewAlgorithm(an, acn.AlgoConfig{MergeThreshold: rng.Float64()})
		levels := make(map[int]float64, an.NumAnchors)
		for i := 0; i < an.NumAnchors; i++ {
			levels[i] = rng.Float64() * 50
		}
		recomposed := alg.Recompose(func(id int) float64 { return levels[id] })
		if recomposed.String() != acn.Static(an).String() {
			nontrivial++
		}

		states := make([]map[store.ObjectID]int64, 0, 3)
		type variant struct {
			name string
			run  func(e *acn.Executor) error
			comp *acn.Composition
		}
		variants := []variant{
			{"flat", func(e *acn.Executor) error { return e.Execute(context.Background(), nil) }, acn.Flat(an)},
			{"recomposed", func(e *acn.Executor) error { return e.Execute(context.Background(), nil) }, recomposed},
			{"checkpointed", func(e *acn.Executor) error { return e.Execute(context.Background(), nil) }, acn.Static(an)},
		}
		for _, v := range variants {
			c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
			c.Seed(txirtest.Seed(nObjects))
			rt := c.Runtime(1, dtm.Config{Seed: 9})
			exec := acn.NewExecutor(rt, an, v.comp)
			if err := v.run(exec); err != nil {
				c.Close()
				t.Fatalf("trial %d %s: %v\n%s\ncomposition %s", trial, v.name, err, prog, v.comp)
			}
			states = append(states, finalState(t, c, nObjects, nStmts))
			c.Close()
		}

		for i := 1; i < len(states); i++ {
			if len(states[i]) != len(states[0]) {
				t.Fatalf("trial %d: %s state size %d vs flat %d\n%s\ncomposition %s",
					trial, variants[i].name, len(states[i]), len(states[0]), prog, recomposed)
			}
			for id, want := range states[0] {
				if got := states[i][id]; got != want {
					t.Fatalf("trial %d: %s diverges at %s: %d vs flat %d\n%s\ncomposition %s",
						trial, variants[i].name, id, got, want, prog, recomposed)
				}
			}
		}
	}
	// The property must not hold vacuously: a good share of the random
	// recompositions must actually merge or reorder blocks.
	if nontrivial < trials/3 {
		t.Fatalf("only %d of %d recompositions differed from the static sequence", nontrivial, trials)
	}
}
