// Package cluster assembles an in-process QR-DTM deployment: N quorum-node
// servers arranged in a logical ternary tree, joined by the simulated
// channel network, plus factories for client runtimes. It stands in for the
// paper's 30-node testbed (10 servers, up to 20 client nodes on a 1 Gbps
// switched network); the network latency is injected per message.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wal"
)

// Config sizes and tunes a cluster.
type Config struct {
	// Servers is the number of quorum nodes (default 10, like the paper).
	Servers int
	// Degree is the quorum tree fan-out (default 3, the paper's ternary
	// tree).
	Degree int
	// Shards, when > 1, partitions the Servers into that many independent
	// quorum groups (contiguous, near-equal, each with its own tree of the
	// same Degree). Every node serves the resulting map over
	// wire.KindShardMap, client runtimes route per object through it, and
	// on a durable cluster each shard keeps its WAL under
	// WALDir/shard-s/node-i. 0 or 1 leaves the cluster unsharded.
	Shards int
	// Network tunes the simulated interconnect.
	Network transport.ChannelConfig
	// StatsWindow is the contention observation window on every node.
	StatsWindow time.Duration
	// ProtectTTL, when positive, enables lease expiry of protections so the
	// cluster self-heals from clients killed mid-commit (failure tests).
	ProtectTTL time.Duration
	// Now injects a clock for server meters (nil: time.Now).
	Now func() time.Time
	// WALDir, when non-empty, gives every node a durable commit log under
	// WALDir/node-i — the full write path (group-commit fsync before ack)
	// runs even on the in-process transport, so benchmarks measure the
	// durability cost without real networking. New returns an error only
	// through NewDurable; New panics on a WAL that cannot open.
	WALDir string
	// FsyncInterval is the group-commit accumulation window (0: wal
	// default; negative: fsync every append).
	FsyncInterval time.Duration
	// SnapshotEvery is the automatic checkpoint threshold in records
	// (0: server default; negative: only explicit checkpoints).
	SnapshotEvery int
	// TraceCapacity, when positive, gives every node a tracer ring of that
	// many events and spans, so traced transactions get server-side serve
	// spans and Cluster.Spans can reassemble cross-node timelines.
	TraceCapacity int
	// ResolveAfter is how long a participant's yes vote may sit undecided
	// before it starts querying its quorum peers for the outcome
	// (0: server default 5s; tests use milliseconds).
	ResolveAfter time.Duration
	// TTLAbortAfter is the last-resort in-doubt abort deadline once a
	// complete peer round finds everyone equally undecided (0: server
	// default 60s). Must exceed the coordinators' decide budget.
	TTLAbortAfter time.Duration
	// MaxInflight, when positive, bounds concurrently executing gated
	// requests per node; excess requests queue up to QueueDepth and are
	// answered StatusOverloaded beyond that (admission control / load
	// shedding). 0 disables the gate.
	MaxInflight int
	// QueueDepth bounds the per-node admission wait queue (0 with
	// MaxInflight set: 4×MaxInflight).
	QueueDepth int
	// MaxQueueAge is the admission queue's adaptive-LIFO threshold (0:
	// server default 100ms).
	MaxQueueAge time.Duration
	// ForensicsRing sizes every node's abort-forensics event rings (0:
	// forensics.DefaultRingSize). Client runtimes built by Runtime /
	// DetectorRuntime inherit the setting.
	ForensicsRing int
	// NoForensics disables abort forensics on every node and on client
	// runtimes built by Runtime / DetectorRuntime (A/B overhead runs).
	NoForensics bool
}

// Cluster is a running in-process deployment.
type Cluster struct {
	Tree  *quorum.Tree
	Net   *transport.ChannelNetwork
	Nodes []*server.Node
	// Shards is the cluster's shard map (nil when unsharded).
	Shards *shard.Map

	cfg          Config // retained for CrashRestart node rebuilds
	resolversOn  bool
	resolverPoll time.Duration
}

// New builds and starts a cluster. See NewDurable for the error-returning
// form required when cfg.WALDir is set.
func New(cfg Config) *Cluster {
	c, err := NewDurable(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewDurable builds and starts a cluster, surfacing WAL open errors.
func NewDurable(cfg Config) (*Cluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 10
	}
	if cfg.Degree == 0 {
		cfg.Degree = 3
	}
	c := &Cluster{
		Tree: quorum.NewTree(cfg.Servers, cfg.Degree),
		Net:  transport.NewChannelNetwork(cfg.Network),
		cfg:  cfg,
	}
	if cfg.Shards > 1 {
		c.Shards = shard.NewUniform(cfg.Servers, cfg.Shards, cfg.Degree)
	}
	for i := 0; i < cfg.Servers; i++ {
		n, err := c.buildNode(quorum.NodeID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
		c.Net.Register(n.ID(), n.Handle)
	}
	return c, nil
}

// buildNode constructs one quorum node per the cluster config, opening and
// replaying its WAL on a durable cluster (used at startup and by
// CrashRestart).
func (c *Cluster) buildNode(id quorum.NodeID) (*server.Node, error) {
	cfg := c.cfg
	scfg := server.Config{
		StatsWindow:   cfg.StatsWindow,
		Now:           cfg.Now,
		SnapshotEvery: cfg.SnapshotEvery,
		ResolveAfter:  cfg.ResolveAfter,
		TTLAbortAfter: cfg.TTLAbortAfter,
		Shards:        c.Shards,
		MaxInflight:   cfg.MaxInflight,
		QueueDepth:    cfg.QueueDepth,
		MaxQueueAge:   cfg.MaxQueueAge,
		ForensicsRing: cfg.ForensicsRing,
		NoForensics:   cfg.NoForensics,
	}
	if cfg.TraceCapacity > 0 {
		scfg.Tracer = trace.New(cfg.TraceCapacity)
	}
	var rec *wal.Recovered
	if cfg.WALDir != "" {
		log, r, err := openNodeWAL(cfg.WALDir, c.Shards, id, cfg.FsyncInterval)
		if err != nil {
			return nil, err
		}
		scfg.WAL = log
		rec = r
	}
	n := server.NewNode(id, scfg)
	if rec != nil {
		// FinishRecovery rather than a bare Restore: in-doubt prepares
		// re-enter the termination protocol with their protections, and
		// recovered decisions answer peers' status queries.
		n.FinishRecovery(rec)
	}
	if cfg.ProtectTTL > 0 {
		n.Store().SetProtectTTL(cfg.ProtectTTL, cfg.Now)
	}
	return n, nil
}

// openNodeWAL opens node id's commit log under root — the one rule both
// cluster runtimes place logs by: root/node-i, or root/shard-s/node-i when
// sharded, so that each quorum group owns a directory and an operator (or
// qracn-inspect wal) can reason about one shard's durable state in isolation.
func openNodeWAL(root string, shards *shard.Map, id quorum.NodeID, fsyncInterval time.Duration) (*wal.Log, *wal.Recovered, error) {
	dir := filepath.Join(root, fmt.Sprintf("node-%d", id))
	if shards != nil {
		dir = filepath.Join(root, fmt.Sprintf("shard-%d", shards.HomeOf(id)), fmt.Sprintf("node-%d", id))
	}
	log, rec, err := wal.Open(dir, wal.Options{FsyncInterval: fsyncInterval})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d wal: %w", id, err)
	}
	return log, rec, nil
}

// CrashRestart simulates a participant process crash and cold restart on a
// durable channel cluster: the node's WAL is crashed (the unsynced tail is
// lost, exactly what a power cut leaves), a fresh node replays snapshot and
// log — rebuilding its in-doubt table — and swaps into the network in place
// of the old one. Fails on a volatile cluster, which has nothing to recover
// from.
func (c *Cluster) CrashRestart(id quorum.NodeID) error {
	if c.cfg.WALDir == "" {
		return fmt.Errorf("cluster: CrashRestart needs a durable cluster (WALDir)")
	}
	old := c.Nodes[id]
	old.StopResolver()
	c.Net.SetDown(id, true)
	if w := old.WAL(); w != nil {
		w.Crash()
	}
	n, err := c.buildNode(id)
	if err != nil {
		return err
	}
	c.Nodes[id] = n
	c.Net.Register(id, n.Handle)
	c.Net.SetDown(id, false)
	if c.resolversOn {
		n.StartResolver(c.Net, c.resolverPoll)
	}
	return nil
}

// Seed installs objects on every replica that owns them: full replication
// when unsharded, the owning quorum group's members only under a shard map
// (foreign replicas must never hold a shard's objects, or stale copies
// could answer reads routed by a future map version).
func (c *Cluster) Seed(objs map[store.ObjectID]store.Value) {
	for _, n := range c.Nodes {
		cp := make(map[store.ObjectID]store.Value, len(objs))
		for id, v := range objs {
			if c.Shards != nil && !c.Shards.GroupOf(id).Contains(n.ID()) {
				continue
			}
			if v != nil {
				cp[id] = v.CloneValue()
			} else {
				cp[id] = nil
			}
		}
		n.Store().SeedBatch(cp)
	}
}

// clampDecide bounds a runtime config's decision-delivery budget below this
// cluster's TTL-abort deadline — the termination-protocol safety invariant,
// enforced at the one layer that knows both values (see
// dtm.ClampDecideTimeout).
func (c *Cluster) clampDecide(cfg *dtm.Config) {
	ttl := c.cfg.TTLAbortAfter
	if ttl <= 0 {
		ttl = server.DefaultTTLAbortAfter
	}
	cfg.DecideTimeout = dtm.ClampDecideTimeout(cfg.DecideTimeout, ttl)
}

// Runtime creates a client runtime attached to this cluster. Fields of cfg
// that identify the cluster (Tree, Client, Alive) are filled in; the rest
// are taken as given, except that DecideTimeout is clamped below the
// cluster's TTL-abort deadline. The network's liveness oracle drives quorum
// selection (composed with the runtime's own failure detector), keeping
// fault tests deterministic.
func (c *Cluster) Runtime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	cfg.Tree = c.Tree
	cfg.Shards = c.Shards
	cfg.Client = c.Net
	cfg.Alive = c.Net.Alive
	cfg.ClientSeed = clientSeed
	c.applyForensics(&cfg)
	c.clampDecide(&cfg)
	return dtm.New(cfg)
}

// applyForensics propagates the cluster's forensics settings to a client
// runtime config unless the caller already chose its own.
func (c *Cluster) applyForensics(cfg *dtm.Config) {
	if cfg.ForensicsRing == 0 {
		cfg.ForensicsRing = c.cfg.ForensicsRing
	}
	if c.cfg.NoForensics {
		cfg.NoForensics = true
	}
}

// DetectorRuntime creates a client runtime WITHOUT the network's liveness
// oracle: node health is known only through the runtime's failure detector,
// exactly as on a real transport where no oracle exists. Chaos tests use it
// to exercise detector-driven failover end to end.
func (c *Cluster) DetectorRuntime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	cfg.Tree = c.Tree
	cfg.Shards = c.Shards
	cfg.Client = c.Net
	cfg.Alive = nil
	cfg.ClientSeed = clientSeed
	c.applyForensics(&cfg)
	c.clampDecide(&cfg)
	return dtm.New(cfg)
}

// Kill marks a server unreachable.
func (c *Cluster) Kill(id quorum.NodeID) { c.Net.SetDown(id, true) }

// Revive marks a server reachable again. Its replica kept its state (a
// partition heal rather than a cold restart).
func (c *Cluster) Revive(id quorum.NodeID) { c.Net.SetDown(id, false) }

// StartResolvers launches every node's background termination loop over the
// cluster network, so participants stranded in-doubt by a dead coordinator
// resolve among themselves. Close stops them.
func (c *Cluster) StartResolvers(pollEvery time.Duration) {
	c.resolversOn, c.resolverPoll = true, pollEvery
	for _, n := range c.Nodes {
		n.StartResolver(c.Net, pollEvery)
	}
}

// ResolveAll drives one synchronous termination pass on every node (tests;
// deterministic alternative to StartResolvers). It returns the total number
// of in-doubt transactions resolved.
func (c *Cluster) ResolveAll(ctx context.Context) int {
	resolved := 0
	for _, n := range c.Nodes {
		resolved += n.ResolveNow(ctx, c.Net)
	}
	return resolved
}

// Close shuts the network down and cleanly closes any commit logs.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.StopResolver()
	}
	c.Net.Close()
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			w.Close()
		}
	}
}

// WALStats sums the commit-log counters across all nodes (zero value on a
// volatile cluster).
func (c *Cluster) WALStats() dtm.WALStats {
	var out dtm.WALStats
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			out.Add(walStatsFor(w))
		}
	}
	return out
}

// Resolution sums the termination-protocol counters across all nodes (the
// InDoubt field is the cluster-wide count of currently undecided votes).
func (c *Cluster) Resolution() dtm.ResolutionStats {
	var out dtm.ResolutionStats
	for _, n := range c.Nodes {
		s := n.ResolutionStats()
		out.Add(dtm.ResolutionStats{
			InDoubt:            s.InDoubt,
			RecoveredInDoubt:   s.RecoveredInDoubt,
			CoordinatorDecided: s.CoordinatorDecided,
			PeerCommits:        s.PeerCommits,
			PeerAborts:         s.PeerAborts,
			TTLAborts:          s.TTLAborts,
			StatusQueries:      s.StatusQueries,
			ResolveForwards:    s.ResolveForwards,
		})
	}
	return out
}

// Forensics merges the per-node abort-forensics snapshots — the server-side
// conflict witnesses — into one. topK bounds each node's hot-key table. It
// returns an empty snapshot on a NoForensics cluster.
func (c *Cluster) Forensics(topK int) *forensics.Snapshot {
	out := &forensics.Snapshot{}
	for _, n := range c.Nodes {
		if rec := n.Forensics(); rec != nil {
			out.Merge(rec.Snapshot(topK))
		}
	}
	return out
}

// Admission sums the overload-protection counters across all nodes.
func (c *Cluster) Admission() server.AdmissionStats {
	var out server.AdmissionStats
	for _, n := range c.Nodes {
		out.Add(n.AdmissionStats())
	}
	return out
}

// Spans merges the spans recorded by every node, optionally filtered to one
// trace ID (empty for everything). Nil on an untraced cluster.
func (c *Cluster) Spans(traceID string) []trace.Span {
	var out []trace.Span
	for _, n := range c.Nodes {
		out = append(out, n.Tracer().SpansFor(traceID)...)
	}
	return out
}

// FsyncWait merges the per-node group-commit wait histograms into one.
func (c *Cluster) FsyncWait() *metrics.LatencyHistogram {
	out := &metrics.LatencyHistogram{}
	for _, n := range c.Nodes {
		out.Merge(&n.Stages().FsyncWait)
	}
	return out
}

// ReviveAndRepair brings a node back and runs anti-entropy against a live
// peer so the healed replica serves fresh state immediately instead of
// waiting for future commits to overwrite it. It returns the number of
// objects repaired.
func (c *Cluster) ReviveAndRepair(ctx context.Context, id, peer quorum.NodeID) (int, error) {
	c.Revive(id)
	return c.Nodes[id].RepairFrom(ctx, c.Net, peer)
}
