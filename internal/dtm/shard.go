package dtm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
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
	group   *shard.Group // nil: the whole-cluster tree (unsharded)
	reads   []store.ReadDesc
	writes  []store.WriteDesc
	release []store.ObjectID
	// quorum is the group's write quorum in the 2PC round under way.
	quorum []quorum.NodeID
}

// partitionCommit splits a commit's reads/writes/release by owning shard,
// in shard order. Groups only read from still get a part: their members
// must hold those reads (shared) from vote to decision and validate them,
// even though they apply nothing — the prepare's Quorum is what tells a
// server this write-free part is a 2PC participant, not a read-only
// transaction's validation round.
func partitionCommit(m *shard.Map, reads []store.ReadDesc, writes []store.WriteDesc, release []store.ObjectID) []commitPart {
	byShard := make([]commitPart, m.NumShards())
	for _, r := range reads {
		p := &byShard[m.ShardFor(r.ID)]
		p.reads = append(p.reads, r)
	}
	for _, w := range writes {
		p := &byShard[m.ShardFor(w.ID)]
		p.writes = append(p.writes, w)
	}
	for _, id := range release {
		p := &byShard[m.ShardFor(id)]
		p.release = append(p.release, id)
	}
	// Every written and every released object was read first, so the touched
	// shards are the ones with reads.
	out := byShard[:0]
	for s, p := range byShard {
		if len(p.reads) > 0 {
			p.group = m.Group(s)
			out = append(out, p)
		}
	}
	return out
}
