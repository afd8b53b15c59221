// Faults: watch the quorum protocol ride out node failures. Two leaf nodes
// die mid-run and come back; throughput dips and recovers, and the final
// audit shows no money was lost.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qracn"
)

func main() {
	opts := qracn.ExperimentOptions{
		Workload:       qracn.NewBank(qracn.BankConfig{Branches: 20, Accounts: 200}),
		Servers:        10,
		Intervals:      6,
		IntervalLength: 250 * time.Millisecond,
		// Nodes 8 and 9 (leaves of the ternary tree) fail at t2 and return
		// at t5; the protection lease heals anything clients left behind
		// when their in-flight commits lost a participant.
		Faults: []qracn.FaultEvent{
			{Interval: 1, Node: 8, Down: true},
			{Interval: 1, Node: 9, Down: true},
			{Interval: 4, Node: 8, Down: false},
			{Interval: 4, Node: 9, Down: false},
		},
		ProtectTTL: 60 * time.Millisecond,
		Seed:       3,
	}

	fmt.Println("running Bank under QR-DTM with two leaf failures (t2-t4)...")
	res, err := qracn.RunExperiment(context.Background(), opts, []qracn.SystemMode{qracn.QRDTM})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(res.Table())
	fmt.Println()
	s := res.Series[qracn.QRDTM]
	fmt.Printf("commits=%d full-aborts=%d (the cluster kept committing throughout)\n",
		s.Commits, s.Metrics.ParentAborts)
	fmt.Println()
	fmt.Println("note: read quorums route around dead leaves (majority of another")
	fmt.Println("tree level); write quorums need only a majority per level, so two")
	fmt.Println("of six leaves down still leaves 4 >= majority(6).")
}
