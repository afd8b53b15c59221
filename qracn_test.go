package qracn_test

import (
	"context"
	"testing"
	"time"

	"qracn"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: cluster, program, analysis, executor, controller,
// plain transactions.
func TestFacadeEndToEnd(t *testing.T) {
	c := qracn.NewCluster(qracn.ClusterConfig{
		Servers:     10,
		Network:     qracn.NetworkConfig{Seed: 1},
		StatsWindow: 50 * time.Millisecond,
	})
	defer c.Close()
	c.Seed(map[qracn.ObjectID]qracn.Value{
		qracn.ID("counter", "a"): qracn.Int64(0),
		qracn.ID("counter", "b"): qracn.Int64(0),
	})

	p := qracn.NewProgram("bump")
	p.ReadP("counter", "x", "first")
	p.ReadP("counter", "y", "second")
	p.Local(func(e *qracn.Env) error {
		e.SetInt64("nx", e.GetInt64("x")+1)
		e.SetInt64("ny", e.GetInt64("y")+1)
		return nil
	}, []qracn.Var{"x", "y"}, []qracn.Var{"nx", "ny"})
	p.WriteP("counter", "nx", "first")
	p.WriteP("counter", "ny", "second")

	an, err := qracn.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if an.NumAnchors != 2 {
		t.Fatalf("anchors = %d", an.NumAnchors)
	}

	rt := c.Runtime(1, qracn.RuntimeConfig{Seed: 1})
	exec := qracn.NewExecutor(rt, an, qracn.Static(an))
	ctrl := qracn.NewController(exec, qracn.ControllerConfig{Interval: time.Hour})

	ctx := context.Background()
	params := map[string]any{"first": "a", "second": "b"}
	for i := 0; i < 5; i++ {
		if err := exec.Execute(ctx, params); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.RefreshOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := exec.Execute(ctx, params); err != nil {
		t.Fatal(err)
	}

	var got int64
	if err := rt.Atomic(ctx, func(tx *qracn.Tx) error {
		v, err := tx.Read(qracn.ID("counter", "a"))
		if err != nil {
			return err
		}
		got = qracn.AsInt64(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("counter a = %d, want 6", got)
	}
}

func TestFacadeCompositions(t *testing.T) {
	p := qracn.NewProgram("p")
	p.ReadP("c", "x", "k1")
	p.ReadP("c", "y", "k2")
	an, err := qracn.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if qracn.Flat(an).NumBlocks() != 1 {
		t.Fatal("Flat should produce one block")
	}
	if qracn.Static(an).NumBlocks() != 2 {
		t.Fatal("Static should produce one block per UnitBlock")
	}
	if _, err := qracn.Manual(an, [][]int{{1}, {0}}); err != nil {
		t.Fatalf("Manual: %v", err)
	}
}

func TestFacadeWorkloadsAndFigures(t *testing.T) {
	if qracn.NewBank(qracn.BankConfig{}).Name() != "bank" {
		t.Fatal("bank")
	}
	if qracn.NewTPCC(qracn.TPCCConfig{MixNewOrder: 100}).Name() != "tpcc" {
		t.Fatal("tpcc")
	}
	if qracn.NewVacation(qracn.VacationConfig{}).Name() != "vacation" {
		t.Fatal("vacation")
	}
	if len(qracn.Figures()) != 6 {
		t.Fatal("figures")
	}
	if _, ok := qracn.FigureByID("4c"); !ok {
		t.Fatal("FigureByID")
	}
}

func TestFacadeExperiment(t *testing.T) {
	res, err := qracn.RunExperiment(context.Background(), qracn.ExperimentOptions{
		Workload:         qracn.NewBank(qracn.BankConfig{Branches: 4, Accounts: 40}),
		Servers:          4,
		Clients:          2,
		ThreadsPerClient: 1,
		Intervals:        2,
		IntervalLength:   60 * time.Millisecond,
		Seed:             5,
	}, []qracn.SystemMode{qracn.QRDTM, qracn.QRACN})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[qracn.QRDTM] == nil || res.Series[qracn.QRACN] == nil {
		t.Fatal("missing series")
	}
	if res.Table() == "" || res.Summary() == "" {
		t.Fatal("empty report")
	}
}
