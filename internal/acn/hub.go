package acn

import (
	"context"
	"sync"
	"sync/atomic"

	"qracn/internal/contention"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/store"
)

// Hub is the one adaptation path of a client node: it observes, recomposes
// and swaps for every transaction profile registered on it. The profiles
// share a single contention table, and one stats query per refresh covers the
// union of all their recently-touched objects — which is how the paper's
// client works (one list of accessed objects per request, §V-C2), and which
// lets contention observed through one profile inform another profile
// touching the same objects. The caller drives it: one RefreshOnce per
// measurement interval (the paper runs the algorithm module every 10 s).
type Hub struct {
	rt        *dtm.Runtime
	table     *contention.Table
	refreshes atomic.Uint64

	mu    sync.Mutex
	execs []*Executor
	algos []*Algorithm
}

// HubConfig tunes a Hub.
type HubConfig struct {
	// TableAlpha is the EMA weight of the shared table (0: 0.6).
	TableAlpha float64
}

// NewHub creates an empty hub over a runtime; it audits its decisions to the
// runtime's forensics recorder.
func NewHub(rt *dtm.Runtime, cfg HubConfig) *Hub {
	alpha := cfg.TableAlpha
	if alpha == 0 {
		alpha = 0.6
	}
	return &Hub{rt: rt, table: contention.NewTable(alpha)}
}

// Register adds a profile's executor; its Block sequence will be recomposed
// on every refresh with the given algorithm configuration.
func (h *Hub) Register(exec *Executor, cfg AlgoConfig) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.execs = append(h.execs, exec)
	h.algos = append(h.algos, NewAlgorithm(exec.Analysis(), cfg))
}

// Table exposes the shared contention table.
func (h *Hub) Table() *contention.Table { return h.table }

// Refreshes reports how many refresh cycles have completed.
func (h *Hub) Refreshes() uint64 { return h.refreshes.Load() }

// Wanted returns the distinct objects all registered profiles recently
// touched: the object list of the stats query each refresh sends.
func (h *Hub) Wanted() []store.ObjectID {
	h.mu.Lock()
	execs := append([]*Executor(nil), h.execs...)
	h.mu.Unlock()
	return sampledIDs(execs...)
}

// Sink folds reported levels into the shared table. No runtime calls it: a
// transaction read carries no stats query, so it reports no levels to sink.
//
// Deprecated: contention levels come from the Hub's query at each refresh.
func (h *Hub) Sink(levels map[store.ObjectID]float64) { h.table.ObserveAll(levels) }

// RefreshOnce performs one dynamic-module + algorithm-module cycle
// synchronously: one stats query for the union of all profiles' objects,
// folded into the table, then every profile's Block sequence recomposed and
// swapped.
func (h *Hub) RefreshOnce(ctx context.Context) error {
	if err := h.observe(ctx); err != nil {
		return err
	}
	h.mu.Lock()
	execs := append([]*Executor(nil), h.execs...)
	algos := append([]*Algorithm(nil), h.algos...)
	h.mu.Unlock()
	for i, exec := range execs {
		h.recompose(exec, algos[i])
	}
	h.refreshes.Add(1)
	return nil
}

// observe is the dynamic-module half of a refresh cycle: one stats query for
// the contention of the wanted objects, folded into the table.
func (h *Hub) observe(ctx context.Context) error {
	ids := h.Wanted()
	if len(ids) == 0 {
		return nil
	}
	levels, err := h.rt.FetchStats(ctx, ids)
	if err != nil {
		return err
	}
	h.table.ObserveAll(levels)
	return nil
}

// recompose is the algorithm-module half, for one executor. Each UnitBlock's
// contention is the mean smoothed level of the concrete objects it recently
// accessed. Every decision leaves a forensic audit, whether it swaps the Block
// sequence or reproduces it.
func (h *Hub) recompose(exec *Executor, algo *Algorithm) {
	comp, aud := algo.RecomposeAudited(func(anchor int) float64 {
		return h.table.Mean(exec.AnchorSample(anchor))
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
		Trigger:  "manual",
		Before:   before,
		After:    comp.String(),
		Levels:   aud.Levels,
		Merges:   aud.Merges,
		Reorders: aud.Reorders,
		Refusals: aud.Refusals,
		Applied:  applied,
	})
	if applied {
		exec.SetComposition(comp)
	}
}
