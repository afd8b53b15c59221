package acn

import (
	"context"
	"sync"

	"qracn/internal/contention"
	"qracn/internal/dtm"
	"qracn/internal/store"
)

// Hub coordinates ACN across every transaction profile of one client node:
// the controllers share a single contention table and one stats query per
// refresh covers the union of all profiles' recently-touched objects —
// which is how the paper's client works (one list of accessed objects per
// request, §V-C2), and which lets contention observed through one profile
// inform another profile touching the same objects.
type Hub struct {
	rt    *dtm.Runtime
	table *contention.Table

	mu    sync.Mutex
	execs []*Executor
	algos []*Algorithm
	// wanted is the union Wanted last built over several profiles, good while
	// the profiles' sampled-set generations (which only grow) still sum to
	// wantedGen.
	wanted    []store.ObjectID
	wantedGen uint64
}

// HubConfig tunes a Hub.
type HubConfig struct {
	// TableAlpha is the EMA weight of the shared table (0: 0.6).
	TableAlpha float64
}

// NewHub creates an empty hub over a runtime.
func NewHub(rt *dtm.Runtime, cfg HubConfig) *Hub {
	alpha := cfg.TableAlpha
	if alpha == 0 {
		alpha = 0.6
	}
	return &Hub{rt: rt, table: contention.NewTable(alpha)}
}

// Register adds a profile's executor; its Block sequence will be recomposed
// on every refresh with the given algorithm configuration. On a sharded
// runtime an unset ShardHome defaults to the plurality shard of the
// anchor's recently sampled objects, so recomposition prefers Blocks that
// stay within one quorum group.
func (h *Hub) Register(exec *Executor, cfg AlgoConfig) {
	if cfg.ShardHome == nil {
		if m := h.rt.ShardMap(); m != nil && m.NumShards() > 1 {
			e := exec
			cfg.ShardHome = func(anchor int) int {
				return anchorHome(m.ShardFor, e.AnchorSample(anchor))
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.execs = append(h.execs, exec)
	h.algos = append(h.algos, NewAlgorithm(exec.Analysis(), cfg))
	h.wanted = nil // built over the profiles there were
}

// anchorHome reports the shard owning the plurality of an anchor's recently
// sampled objects (-1 when the anchor has no samples yet).
func anchorHome(shardOf func(store.ObjectID) int, ids []store.ObjectID) int {
	best, bestN := -1, 0
	counts := make(map[int]int)
	for _, id := range ids {
		s := shardOf(id)
		counts[s]++
		if counts[s] > bestN || (counts[s] == bestN && s < best) {
			best, bestN = s, counts[s]
		}
	}
	return best
}

// Table exposes the shared contention table.
func (h *Hub) Table() *contention.Table { return h.table }

// Wanted implements the piggyback hook over all registered profiles. The
// slice is shared and must not be modified.
func (h *Hub) Wanted() []store.ObjectID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.execs) == 1 {
		return h.execs[0].SampledIDs()
	}
	var gen uint64
	for _, e := range h.execs {
		_, g := e.sampled.IDs()
		gen += g
	}
	if h.wanted != nil && gen == h.wantedGen {
		return h.wanted
	}
	seen := make(map[store.ObjectID]bool)
	h.wanted, h.wantedGen = nil, gen
	for _, e := range h.execs {
		for _, id := range e.SampledIDs() {
			if !seen[id] {
				seen[id] = true
				h.wanted = append(h.wanted, id)
			}
		}
	}
	return h.wanted
}

// Sink implements the piggyback hook: reported levels feed the shared
// table.
func (h *Hub) Sink(levels map[store.ObjectID]float64) { h.table.ObserveAll(levels) }

// RefreshOnce fetches contention for the union of all profiles' objects
// with a single query and recomposes every profile's Block sequence.
func (h *Hub) RefreshOnce(ctx context.Context) error {
	if err := observe(ctx, h.rt, h.table, h.Wanted()); err != nil {
		return err
	}
	h.mu.Lock()
	execs := append([]*Executor(nil), h.execs...)
	algos := append([]*Algorithm(nil), h.algos...)
	h.mu.Unlock()
	for i, exec := range execs {
		recompose(exec, algos[i], h.table, h.rt.Tracer(), "manual")
	}
	return nil
}
