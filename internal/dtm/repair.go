package dtm

import (
	"context"
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// Read-repair: a quorum read that observes members behind the quorum
// maximum notes them on the object's read entry (settle), and the transaction
// that read it pushes the fresh value+version back to them once it has
// committed or, read-only, validated — for the rows it read and did not
// write. A row it wrote needs no push: the commit's own decision carries a
// newer version to a whole write quorum, and a push of the version that
// decision supersedes is a message that cannot change anything. An attempt
// that aborts pushes nothing (its re-execution reads the rows again), nor
// does a read-ahead entry no Block consumed. The tree-quorum protocol stays
// correct without repair (every read quorum intersects every write quorum, so
// the maximum version always surfaces), but a replica that restarted from a
// crash would otherwise serve stale or empty state until a write quorum
// happens to include it — each such member silently erodes the availability
// margin of its level. Repair pushes are asynchronous, deduplicated per
// object, version-guarded server-side, and never block or fail the
// transaction that triggered them.

// staleMembers returns the quorum members whose answer for the object lags
// behind version ver.
func staleMembers(results []callResult, ver uint64) []quorum.NodeID {
	var out []quorum.NodeID
	for _, r := range results {
		if r.err != nil || r.resp == nil {
			continue
		}
		switch r.resp.Status {
		case wire.StatusOK:
			if r.resp.Read != nil && r.resp.Read.Version < ver {
				out = append(out, r.node)
			}
		case wire.StatusNotFound:
			// The replica does not know the object at all (version 0).
			out = append(out, r.node)
		}
	}
	return out
}

// repairReads schedules, for a transaction that committed (or validated
// read-only), an asynchronous repair push per row it read from a quorum with
// stale members and did not go on to write.
func (rt *Runtime) repairReads(tx *Tx) {
	for _, id := range tx.readOrder {
		e := tx.reads[id]
		if _, written := tx.writes[id]; written || len(e.stale) == 0 {
			continue
		}
		rt.repairMu.Lock()
		busy := rt.repairing[id]
		rt.repairing[id] = true
		rt.repairMu.Unlock()
		if !busy {
			go rt.repairAsync(id, e.stale, e.val, e.ver)
		}
	}
}

// repairAsync pushes value+version to the stale members. It runs detached
// from any transaction context — the read that noticed the staleness may
// have long committed — but bounded by the runtime's request timeout.
func (rt *Runtime) repairAsync(id store.ObjectID, nodes []quorum.NodeID, val store.Value, ver uint64) {
	defer func() {
		rt.repairMu.Lock()
		delete(rt.repairing, id)
		rt.repairMu.Unlock()
	}()
	req := &wire.Request{
		Kind:   wire.KindRepair,
		Repair: &wire.RepairRequest{Object: id, Value: val, Version: ver},
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.RequestTimeout)
	defer cancel()
	for _, r := range rt.fanout(ctx, nodes, req) {
		if r.err == nil && r.resp.Status == wire.StatusOK {
			rt.metrics.Repairs.Add(1)
			if rt.cfg.Tracer.Enabled() {
				rt.cfg.Tracer.Record(trace.KindRepair, "read-repair",
					fmt.Sprintf("%s v%d -> node-%d", id, ver, r.node))
			}
		}
	}
}
