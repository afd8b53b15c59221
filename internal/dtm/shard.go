package dtm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// shardCounters attributes top-level outcomes to the shards a transaction
// touched. A cross-shard transaction counts once in EVERY touched shard, so
// per-shard sums can exceed the scalar Commits/ParentAborts totals.
type shardCounters struct {
	commits      atomic.Uint64
	parentAborts atomic.Uint64
	subAborts    atomic.Uint64
	// causes attributes aborts (full and partial together) by forensic
	// cause, indexed by forensics.Cause. CauseUnknown aborts stay in slot 0.
	causes [forensics.NumCauses]atomic.Uint64
}

// ShardCounts is a point-in-time copy of one shard's attribution counters.
// The commits/full_aborts/partial_aborts keys predate per-cause attribution
// and are kept stable for existing report consumers.
type ShardCounts struct {
	Commits      uint64 `json:"commits"`
	ParentAborts uint64 `json:"full_aborts"`
	SubAborts    uint64 `json:"partial_aborts"`

	AbortsReadValidation uint64 `json:"aborts_read_validation"`
	AbortsLockConflict   uint64 `json:"aborts_lock_conflict"`
	AbortsCommitRound    uint64 `json:"aborts_commit_round"`
	AbortsDeadline       uint64 `json:"aborts_deadline"`
	AbortsOverload       uint64 `json:"aborts_overload"`
}

// Add accumulates another snapshot of the same shard.
func (c *ShardCounts) Add(o ShardCounts) {
	c.Commits += o.Commits
	c.ParentAborts += o.ParentAborts
	c.SubAborts += o.SubAborts
	c.AbortsReadValidation += o.AbortsReadValidation
	c.AbortsLockConflict += o.AbortsLockConflict
	c.AbortsCommitRound += o.AbortsCommitRound
	c.AbortsDeadline += o.AbortsDeadline
	c.AbortsOverload += o.AbortsOverload
}

// ShardSnapshot copies the per-shard attribution counters, indexed by shard.
// It returns nil for unsharded runtimes.
func (rt *Runtime) ShardSnapshot() []ShardCounts {
	if rt.shardStats == nil {
		return nil
	}
	out := make([]ShardCounts, len(rt.shardStats))
	for i := range rt.shardStats {
		out[i] = ShardCounts{
			Commits:      rt.shardStats[i].commits.Load(),
			ParentAborts: rt.shardStats[i].parentAborts.Load(),
			SubAborts:    rt.shardStats[i].subAborts.Load(),

			AbortsReadValidation: rt.shardStats[i].causes[forensics.CauseReadValidation].Load(),
			AbortsLockConflict:   rt.shardStats[i].causes[forensics.CauseLockConflict].Load(),
			AbortsCommitRound:    rt.shardStats[i].causes[forensics.CauseCommitRound].Load(),
			AbortsDeadline:       rt.shardStats[i].causes[forensics.CauseDeadline].Load(),
			AbortsOverload:       rt.shardStats[i].causes[forensics.CauseOverload].Load(),
		}
	}
	return out
}

type shardOutcome int

const (
	shardCommit shardOutcome = iota
	shardParentAbort
	shardSubAbort
)

// noteShards attributes one top-level outcome to every shard the context's
// read set touches (writes always follow a first-access read, so the read
// set covers both). Aborts raised before the first merged read go
// unattributed — the breakdown is a profile, not an invariant. cause splits
// abort outcomes by forensic cause (pass forensics.CauseUnknown for commits).
func (rt *Runtime) noteShards(tx *Tx, outcome shardOutcome, cause forensics.Cause) {
	if rt.shardStats == nil {
		return
	}
	seen := make(map[int]bool, 2)
	for id := range tx.reads {
		s := rt.cfg.Shards.ShardFor(id)
		if seen[s] {
			continue
		}
		seen[s] = true
		switch outcome {
		case shardCommit:
			rt.shardStats[s].commits.Add(1)
		case shardParentAbort:
			rt.shardStats[s].parentAborts.Add(1)
		case shardSubAbort:
			rt.shardStats[s].subAborts.Add(1)
		}
		if outcome != shardCommit && int(cause) < len(rt.shardStats[s].causes) {
			rt.shardStats[s].causes[cause].Add(1)
		}
	}
}

// FetchShardMap retrieves the cluster's shard map from the first answering
// node. have (nil is fine) is the caller's cached map: its version rides on
// the request so an up-to-date cache costs a membership-free round trip and
// no rebuild.
func FetchShardMap(ctx context.Context, client transport.Client, nodes []quorum.NodeID, have *shard.Map) (*shard.Map, error) {
	var haveV uint64
	if have != nil {
		haveV = have.Version()
	}
	req := &wire.Request{Kind: wire.KindShardMap, ShardMap: &wire.ShardMapRequest{HaveVersion: haveV}}
	var lastErr error
	for _, n := range nodes {
		resp, err := client.Call(ctx, n, req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Status != wire.StatusOK || resp.ShardMap == nil {
			lastErr = fmt.Errorf("dtm: shard map from node %d: %s %s", n, resp.Status, resp.Detail)
			continue
		}
		sm := resp.ShardMap
		if sm.Groups == nil {
			if have != nil && have.Version() == sm.Version {
				return have, nil
			}
			lastErr = fmt.Errorf("dtm: node %d omitted membership for unknown version %d", n, sm.Version)
			continue
		}
		return shard.New(sm.Version, sm.Degree, sm.Groups)
	}
	if lastErr == nil {
		lastErr = errors.New("dtm: no nodes to fetch the shard map from")
	}
	return nil, lastErr
}

// commitPart is one quorum group's slice of a commit: the reads it must
// validate, the writes it will apply, and the protections it releases.
type commitPart struct {
	group   *shard.Group
	reads   []store.ReadDesc
	writes  []store.WriteDesc
	release []store.ObjectID
}

// partitionCommit splits a commit's reads/writes/release by owning shard,
// in shard order. Groups only read from still get a part: their members
// must hold those reads (shared) from vote to decision and validate them,
// even though they apply nothing — the prepare's Quorum is what tells a
// server this write-free part is a 2PC participant, not a read-only
// transaction's validation round.
func partitionCommit(m *shard.Map, reads []store.ReadDesc, writes []store.WriteDesc, release []store.ObjectID) []commitPart {
	byShard := make(map[int]*commitPart)
	part := func(s int) *commitPart {
		p, ok := byShard[s]
		if !ok {
			p = &commitPart{group: m.Group(s)}
			byShard[s] = p
		}
		return p
	}
	for _, r := range reads {
		p := part(m.ShardFor(r.ID))
		p.reads = append(p.reads, r)
	}
	for _, w := range writes {
		p := part(m.ShardFor(w.ID))
		p.writes = append(p.writes, w)
	}
	for _, id := range release {
		p := part(m.ShardFor(id))
		p.release = append(p.release, id)
	}
	out := make([]commitPart, 0, len(byShard))
	for s := 0; s < m.NumShards(); s++ {
		if p, ok := byShard[s]; ok {
			out = append(out, *p)
		}
	}
	return out
}

// commitCrossShard drives 2PC across every touched quorum group. Each group
// receives a prepare naming only its own shard's reads and writes, but the
// durable Quorum membership on every prepare is the UNION of all groups'
// write-quorum members: after a coordinator crash, cooperative termination
// then interrogates cross-group participants too, so a commit delivered to
// any one group proves the outcome to the others — no group can TTL-abort a
// transaction a sibling group already committed. The transaction commits
// iff every member of every group votes yes; decisions then go out per
// group carrying only that group's writes and release set.
func (rt *Runtime) commitCrossShard(ctx context.Context, tx *Tx, parts []commitPart) error {
	var lastErr error
	var excl quorum.ExcludeSet
	for attempt := 0; attempt < rt.cfg.QuorumAttempts; attempt++ {
		if attempt > 0 {
			if !tx.takeRetry() {
				return errBudget("cross-shard quorum failover")
			}
			rt.metrics.Failovers.Add(1)
			rt.cfg.Tracer.Record(trace.KindFailover, tx.id, "cross-shard quorum re-selection")
		}
		// One write quorum per touched group; any group short of a quorum
		// fails the whole commit (the exclude set is global — each group's
		// selector ignores exclusions naming foreign nodes).
		quorums := make([][]quorum.NodeID, len(parts))
		var union []quorum.NodeID
		for i, p := range parts {
			wq, err := rt.selectWriteQuorumIn(p.group, tx.seed+attempt, excl)
			if err != nil {
				return errors.Join(ErrQuorumUnreachable, err)
			}
			quorums[i] = wq
			union = append(union, wq...)
		}
		txid := tx.id
		if attempt > 0 {
			txid = fmt.Sprintf("%s-q%d", tx.id, attempt)
		}
		var nodes []quorum.NodeID
		var reqs []*wire.Request
		var partIdx []int
		for i, p := range parts {
			preq := &wire.Request{
				Kind:     wire.KindPrepare,
				TxID:     txid,
				Deadline: tx.deadline,
				Prepare:  &wire.PrepareRequest{Reads: p.reads, Writes: p.writes, Quorum: union},
			}
			if tx.traceID != "" {
				preq.TraceID = tx.traceID
				preq.SpanID = tx.span
			}
			for _, n := range quorums[i] {
				nodes = append(nodes, n)
				reqs = append(reqs, preq)
				partIdx = append(partIdx, i)
			}
		}
		rt.metrics.Prepares.Add(1)
		prepStart := time.Now()
		results := rt.fanoutEach(ctx, nodes, func(i int) *wire.Request { return reqs[i] })
		rt.stages.Prepare.Record(time.Since(prepStart))

		var invalid []store.ObjectID
		var busyIDs []store.ObjectID
		conflictTx := ""
		yes := 0
		unreachable := false
		preparedOn := make([][]quorum.NodeID, len(parts))
		for i, r := range results {
			if r.err != nil {
				unreachable = true
				lastErr = r.err
				continue
			}
			if r.resp.Status != wire.StatusOK || r.resp.Prepare == nil {
				unreachable = true
				continue
			}
			if r.resp.Prepare.Vote {
				yes++
				preparedOn[partIdx[i]] = append(preparedOn[partIdx[i]], r.node)
				continue
			}
			invalid = append(invalid, r.resp.Prepare.Invalid...)
			busyIDs = append(busyIDs, r.resp.Prepare.Busy...)
			if conflictTx == "" {
				conflictTx = r.resp.ConflictTx
			}
		}

		if yes == len(nodes) {
			// Unanimous across every group: deliver per-group commit
			// decisions concurrently (decide retries its own stragglers
			// within the decide budget; cooperative termination covers the
			// rest).
			var wg sync.WaitGroup
			for i := range parts {
				wg.Add(1)
				go func(q []quorum.NodeID, p commitPart) {
					defer wg.Done()
					rt.decide(ctx, q, tx, txid, true, p.writes, p.release)
				}(quorums[i], parts[i])
			}
			wg.Wait()
			rt.metrics.CrossShardCommits.Add(1)
			return nil
		}

		// Some participant said no or vanished: abort-release every group
		// where protections may be held.
		rt.metrics.PrepareFails.Add(1)
		var wg sync.WaitGroup
		for i := range parts {
			if len(preparedOn[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(q []quorum.NodeID, p commitPart) {
				defer wg.Done()
				rt.decide(ctx, q, tx, txid, false, nil, p.release)
			}(preparedOn[i], parts[i])
		}
		wg.Wait()

		if len(invalid) > 0 || len(busyIDs) > 0 {
			rt.metrics.CrossShardAborts.Add(1)
			busyOnly := len(busyIDs) > 0 && len(invalid) == 0
			ae := &AbortError{
				Level:   AbortParent,
				Invalid: append(invalid, busyIDs...),
				Busy:    busyOnly,
				Reason:  "cross-shard commit validation failed",
				Cause:   forensics.CauseReadValidation,
				Key:     firstID(invalid, busyIDs),
			}
			if busyOnly {
				ae.Cause = forensics.CauseLockConflict
				ae.ConflictTx = conflictTx
			}
			return ae
		}
		if unreachable {
			excl, _ = recordFailed(excl, results)
			if err := ctx.Err(); err != nil {
				return err
			}
			continue
		}
		rt.metrics.CrossShardAborts.Add(1)
		return &AbortError{Level: AbortParent, Reason: "cross-shard prepare rejected", Cause: forensics.CauseCommitRound}
	}
	return errors.Join(ErrQuorumUnreachable, lastErr)
}
