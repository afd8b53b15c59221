// Adaptive: watch ACN follow a moving hot spot. The Vacation workload's hot
// table cycles car → flight → room; after every shift the hub
// re-derives the Block sequence and the hot table's UnitBlock migrates
// toward the commit point.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"qracn"
)

func main() {
	c := qracn.NewCluster(qracn.ClusterConfig{
		Servers:     10,
		Network:     qracn.NetworkConfig{Latency: 50 * time.Microsecond, Seed: 1},
		StatsWindow: 150 * time.Millisecond,
	})
	defer c.Close()

	w := qracn.NewVacation(qracn.VacationConfig{Rows: 200, HotRows: 2, QueryPct: 0})
	c.Seed(w.SeedObjects())

	reserve := w.Profiles()[0]
	an, err := qracn.Analyze(reserve.Program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("UnitBlocks: 0=car 1=flight 2=room 3=customer")
	fmt.Println("(watch the hot table's block move to the end of the sequence)")
	fmt.Println()

	rt := c.Runtime(1, qracn.RuntimeConfig{Seed: 7})
	exec := qracn.NewExecutor(rt, an, qracn.Static(an))
	hub := qracn.NewHub(rt, qracn.HubConfig{})
	hub.Register(exec, qracn.AlgoConfig{})

	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	tables := []string{"car", "flight", "room"}

	for phase := 0; phase < 3; phase++ {
		// Drive load with this phase's hot table across two stats windows
		// so the servers' contention meters rotate.
		deadline := time.Now().Add(350 * time.Millisecond)
		n := 0
		for time.Now().Before(deadline) {
			_, params := w.Generate(rng, phase)
			if err := exec.Execute(ctx, params); err != nil {
				log.Fatal(err)
			}
			n++
		}
		if err := hub.RefreshOnce(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %d (hot table %-6s): %3d tx -> composition %s\n",
			phase, tables[phase], n, exec.Composition())
	}
}
