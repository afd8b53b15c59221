// TPC-C: reproduce one panel of the paper's evaluation (default: Figure
// 4(a), 100% NewOrder) through the figure registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"qracn"
)

func main() {
	figID := flag.String("fig", "4a", "figure panel: 4a (NewOrder), 4b (Payment), 4c (mix), 4d (Delivery)")
	flag.Parse()

	fig, ok := qracn.FigureByID(*figID)
	if !ok {
		log.Fatalf("unknown figure %q", *figID)
	}
	fmt.Printf("Figure %s: %s\n", fig.ID, fig.Title)
	fmt.Printf("paper: %s\n\n", fig.Expect)

	res, err := qracn.RunExperiment(context.Background(), fig.Options(qracn.ExperimentOptions{}), qracn.AllModes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	fmt.Println()
	fmt.Print(res.Summary())
}
