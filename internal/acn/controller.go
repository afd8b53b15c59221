package acn

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/contention"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
	"qracn/internal/trace"
)

// ControllerConfig tunes the periodic recomposition.
type ControllerConfig struct {
	// Interval between Algorithm-module invocations (the paper runs it
	// every 10 s; tests use milliseconds). Default 10 s.
	Interval time.Duration
	// Algo configures the algorithm module.
	Algo AlgoConfig
	// TableAlpha is the EMA weight of the client contention table (0: 0.6).
	TableAlpha float64
	// Tracer, when non-nil, records every recomposition.
	Tracer *trace.Tracer
}

// Controller wires the dynamic module to the algorithm module for one
// executor: it periodically collects the contention level of the objects
// the program recently touched, estimates each UnitBlock's contention, runs
// the three-step recomposition, and swaps the executor's Block sequence.
// It also exposes the Wanted/Sink hooks the DTM runtime uses to piggyback
// stats on ordinary read messages.
type Controller struct {
	exec  *Executor
	algo  *Algorithm
	table *contention.Table

	interval  time.Duration
	tracer    *trace.Tracer
	refreshes atomic.Uint64

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewController builds a controller for the executor.
func NewController(exec *Executor, cfg ControllerConfig) *Controller {
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Second
	}
	alpha := cfg.TableAlpha
	if alpha == 0 {
		alpha = 0.6
	}
	return &Controller{
		exec:     exec,
		algo:     NewAlgorithm(exec.Analysis(), cfg.Algo),
		table:    contention.NewTable(alpha),
		interval: cfg.Interval,
		tracer:   cfg.Tracer,
	}
}

// Table exposes the smoothed contention table.
func (c *Controller) Table() *contention.Table { return c.table }

// Refreshes reports how many recompositions have run.
func (c *Controller) Refreshes() uint64 { return c.refreshes.Load() }

// Wanted implements the piggyback hook: the object IDs whose contention the
// client currently cares about.
func (c *Controller) Wanted() []store.ObjectID { return c.exec.SampledIDs() }

// Sink implements the piggyback hook: levels reported by servers flow into
// the contention table.
func (c *Controller) Sink(levels map[store.ObjectID]float64) { c.table.ObserveAll(levels) }

// RefreshOnce performs one dynamic-module + algorithm-module cycle
// synchronously: query the quorum for the contention of recently touched
// objects, fold into the table, recompose, and swap the Block sequence.
func (c *Controller) RefreshOnce(ctx context.Context) error {
	return c.refresh(ctx, "manual")
}

// refresh is RefreshOnce with the forensic trigger label: "interval" for the
// periodic loop, "manual" for explicit RefreshOnce calls.
func (c *Controller) refresh(ctx context.Context, trigger string) error {
	if err := observe(ctx, c.exec.Runtime(), c.table, c.exec.SampledIDs()); err != nil {
		return err
	}
	recompose(c.exec, c.algo, c.table, c.tracer, trigger)
	c.refreshes.Add(1)
	return nil
}

// observe is the dynamic-module half of a refresh cycle: one stats query for
// the contention of ids, folded into table.
func observe(ctx context.Context, rt *dtm.Runtime, table *contention.Table, ids []store.ObjectID) error {
	if len(ids) == 0 {
		return nil
	}
	levels, err := rt.FetchStats(ctx, ids)
	if err != nil {
		return err
	}
	table.ObserveAll(levels)
	return nil
}

// recompose is the algorithm-module half, for one executor — the one copy
// the Controller and the Hub both run, so the same decision leaves the same
// forensic audit and the same trace event whoever took it. Each UnitBlock's
// contention is the mean smoothed level of the concrete objects it recently
// accessed; trigger names who asked ("interval": a periodic loop; "manual":
// a RefreshOnce call).
func recompose(exec *Executor, algo *Algorithm, table *contention.Table, tracer *trace.Tracer, trigger string) {
	comp, aud := algo.RecomposeAudited(func(anchor int) float64 {
		return table.Mean(exec.AnchorSample(anchor))
	})
	before := ""
	if cur := exec.Composition(); cur != nil {
		before = cur.String()
	}
	// Skip the swap when the algorithm module reproduced the current Block
	// sequence: SetComposition recompiles the whole plan, and an unchanged
	// composition would churn it (and every in-flight Execute's view) for
	// nothing.
	applied := before != comp.String()
	exec.Runtime().Forensics().RecordRecompose(forensics.RecomposeEvent{
		Trigger:  trigger,
		Before:   before,
		After:    comp.String(),
		Levels:   aud.Levels,
		Merges:   aud.Merges,
		Reorders: aud.Reorders,
		Refusals: aud.Refusals,
		Applied:  applied,
	})
	if !applied {
		tracer.Record(trace.KindRecomposeSkip, "", comp.String())
		return
	}
	exec.SetComposition(comp)
	tracer.Record(trace.KindRecompose, "", comp.String())
}

// Start launches the periodic refresh loop (asynchronous, per §V-C3).
// It is a no-op if already started.
func (c *Controller) Start(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_ = c.refresh(ctx, "interval") // transient quorum errors: retry next tick
			case <-c.stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Stop halts the refresh loop and waits for it to exit.
func (c *Controller) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return
	}
	close(c.stop)
	<-c.done
	c.started = false
}
