// Quickstart: deploy an in-process replicated DTM, express a flat
// transaction in the IR, let ACN decompose it, and execute it.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qracn"
)

func main() {
	// 1. Deploy ten quorum nodes arranged in a ternary tree, joined by a
	//    simulated LAN.
	c := qracn.NewCluster(qracn.ClusterConfig{
		Servers:     10,
		Network:     qracn.NetworkConfig{Latency: 100 * time.Microsecond, Seed: 1},
		StatsWindow: 200 * time.Millisecond,
	})
	defer c.Close()

	// 2. Seed two shared counters.
	c.Seed(map[qracn.ObjectID]qracn.Value{
		"counter/hot":  qracn.Int64(0),
		"counter/cold": qracn.Int64(0),
	})

	// 3. Write the transaction as flat business logic: read both counters,
	//    combine, write both back. ACN will figure out the decomposition.
	p := qracn.NewProgram("bump-both")
	p.ReadP("counter", "h", "hot")  // UnitBlock 0
	p.ReadP("counter", "c", "cold") // UnitBlock 1
	p.Local(func(e *qracn.Env) error {
		e.SetInt64("nh", e.GetInt64("h")+1)
		e.SetInt64("nc", e.GetInt64("c")+1)
		return nil
	}, []qracn.Var{"h", "c"}, []qracn.Var{"nh", "nc"})
	p.WriteP("counter", "nh", "hot")
	p.WriteP("counter", "nc", "cold")

	// 4. Static module: UnitGraph → UnitBlocks → dependency model.
	an, err := qracn.Analyze(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static analysis found %d UnitBlocks\n", an.NumAnchors)

	// 5. Execute under automatic closed nesting.
	rt := c.Runtime(1, qracn.RuntimeConfig{Seed: 42})
	exec := qracn.NewExecutor(rt, an, qracn.Static(an))
	hub := qracn.NewHub(rt, qracn.HubConfig{})
	hub.Register(exec, qracn.AlgoConfig{})

	ctx := context.Background()
	params := map[string]any{"hot": "hot", "cold": "cold"}
	for i := 0; i < 50; i++ {
		if err := exec.Execute(ctx, params); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("initial composition: %s\n", exec.Composition())

	// 6. Let the dynamic module observe contention and recompose.
	time.Sleep(250 * time.Millisecond) // one stats window
	for i := 0; i < 10; i++ {
		if err := exec.Execute(ctx, params); err != nil {
			log.Fatal(err)
		}
	}
	if err := hub.RefreshOnce(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adapted composition: %s\n", exec.Composition())

	// 7. Read the counters back through a plain transaction.
	if err := rt.Atomic(ctx, func(tx *qracn.Tx) error {
		h, err := tx.Read("counter/hot")
		if err != nil {
			return err
		}
		fmt.Printf("counter/hot = %d after 60 transactions\n", qracn.AsInt64(h))
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}
