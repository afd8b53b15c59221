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

// Config is the deployment shape both runtimes (New / NewDurable over the
// channel network, NewTCP over loopback TCP) are built from. Node tunables
// are not re-declared here: they travel in Node, by value.
type Config struct {
	// Servers is the number of quorum nodes (default 10, like the paper;
	// NewTCP defaults to 4).
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
	// Network tunes the simulated interconnect (channel transport only).
	Network transport.ChannelConfig
	// Compress enables flate compression of large frames (TCP only).
	Compress bool
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
	// through NewDurable; New panics on a WAL that cannot open. On TCP, Kill
	// crashes the log without flushing and Restart replays snapshot+log
	// before serving (recovery handshake).
	WALDir string
	// FsyncInterval is the linger bound of unforced log records (0: wal
	// default).
	FsyncInterval time.Duration
	// TraceCapacity, when positive, gives every node a tracer ring of that
	// many events and spans, so traced transactions get server-side serve
	// spans and Spans can reassemble cross-node timelines.
	TraceCapacity int
	// Node is the template every node is built from: admission control,
	// termination deadlines, checkpoint threshold and forensics are set
	// here and nowhere else. The cluster fills what only it knows — WAL,
	// Shards, Tracer (from TraceCapacity), StatsWindow and Now — replacing
	// whatever the template holds for those. Client runtimes built by
	// Runtime / DetectorRuntime inherit Node.ForensicsRing / NoForensics.
	Node server.Config
}

// deployment is the transport-independent half of a running cluster: the
// tree, the shard map, the nodes and the Config they were built from. Cluster
// and TCPCluster embed it, so node assembly, seeding, runtime configuration
// and the per-node aggregations exist once.
type deployment struct {
	Tree  *quorum.Tree
	Nodes []*server.Node
	// Shards is the cluster's shard map (nil when unsharded).
	Shards *shard.Map

	cfg Config
}

// Cluster is a running in-process deployment.
type Cluster struct {
	deployment
	Net *transport.ChannelNetwork

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
	c := &Cluster{deployment: newDeployment(cfg), Net: transport.NewChannelNetwork(cfg.Network)}
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

// newDeployment lays out tree and shard map for cfg (Servers already
// defaulted by the caller; the two runtimes differ there).
func newDeployment(cfg Config) deployment {
	if cfg.Degree == 0 {
		cfg.Degree = 3
	}
	d := deployment{Tree: quorum.NewTree(cfg.Servers, cfg.Degree), cfg: cfg}
	if cfg.Shards > 1 {
		d.Shards = shard.NewUniform(cfg.Servers, cfg.Shards, cfg.Degree)
	}
	return d
}

// Durable reports whether the cluster's nodes write commit logs.
func (d *deployment) Durable() bool { return d.cfg.WALDir != "" }

// newNode instantiates the Node template for one node over the given log
// (nil: volatile, or a log attached later by a recovering TCP restart).
func (d *deployment) newNode(id quorum.NodeID, log *wal.Log) *server.Node {
	scfg := d.cfg.Node
	scfg.StatsWindow = d.cfg.StatsWindow
	scfg.Now = d.cfg.Now
	scfg.Shards = d.Shards
	scfg.WAL = log
	scfg.Tracer = nil
	if d.cfg.TraceCapacity > 0 {
		scfg.Tracer = trace.New(d.cfg.TraceCapacity)
	}
	n := server.NewNode(id, scfg)
	if d.cfg.ProtectTTL > 0 {
		n.Store().SetProtectTTL(d.cfg.ProtectTTL, d.cfg.Now)
	}
	return n
}

// buildNode constructs one quorum node per the cluster config, opening and
// replaying its WAL on a durable cluster (used at startup and by
// CrashRestart).
func (d *deployment) buildNode(id quorum.NodeID) (*server.Node, error) {
	if !d.Durable() {
		return d.newNode(id, nil), nil
	}
	log, rec, err := d.openWAL(id)
	if err != nil {
		return nil, err
	}
	n := d.newNode(id, log)
	// FinishRecovery rather than a bare Restore: in-doubt prepares re-enter
	// the termination protocol with their protections, and recovered
	// decisions answer peers' status queries.
	n.FinishRecovery(rec)
	return n, nil
}

// openWAL opens node id's commit log — the one rule both cluster runtimes
// place logs by: WALDir/node-i, or WALDir/shard-s/node-i when sharded, so
// that each quorum group owns a directory and an operator (or qracn-inspect
// wal) can reason about one shard's durable state in isolation.
func (d *deployment) openWAL(id quorum.NodeID) (*wal.Log, *wal.Recovered, error) {
	dir := filepath.Join(d.cfg.WALDir, fmt.Sprintf("node-%d", id))
	if d.Shards != nil {
		dir = filepath.Join(d.cfg.WALDir, fmt.Sprintf("shard-%d", d.Shards.HomeOf(id)), fmt.Sprintf("node-%d", id))
	}
	log, rec, err := wal.Open(dir, wal.Options{FsyncInterval: d.cfg.FsyncInterval})
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
	if !c.Durable() {
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
func (d *deployment) Seed(objs map[store.ObjectID]store.Value) {
	for _, n := range d.Nodes {
		cp := make(map[store.ObjectID]store.Value, len(objs))
		for id, v := range objs {
			if d.Shards != nil && !d.Shards.GroupOf(id).Contains(n.ID()) {
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

// runtimeConfig fills the fields of a caller's dtm.Config that identify this
// deployment (Tree, Shards, ClientSeed), hands the cluster's forensics
// settings down unless the caller chose its own ring size, and bounds the
// decision-delivery budget below the nodes' TTL-abort deadline — the
// termination-protocol safety invariant, enforced at the one layer that
// knows both values (see dtm.ClampDecideTimeout).
func (d *deployment) runtimeConfig(clientSeed int, cfg dtm.Config) dtm.Config {
	cfg.Tree = d.Tree
	cfg.Shards = d.Shards
	cfg.ClientSeed = clientSeed
	if cfg.ForensicsRing == 0 {
		cfg.ForensicsRing = d.cfg.Node.ForensicsRing
	}
	if d.cfg.Node.NoForensics {
		cfg.NoForensics = true
	}
	ttl := d.cfg.Node.TTLAbortAfter
	if ttl <= 0 {
		ttl = server.DefaultTTLAbortAfter
	}
	cfg.DecideTimeout = dtm.ClampDecideTimeout(cfg.DecideTimeout, ttl)
	return cfg
}

// Runtime creates a client runtime attached to this cluster. Fields of cfg
// that identify the cluster (Tree, Shards, Client, Alive, ClientSeed) are
// filled in; the rest are taken as given, except that the cluster's
// forensics settings are inherited and DecideTimeout is clamped below the
// cluster's TTL-abort deadline. The network's liveness oracle drives quorum
// selection (composed with the runtime's own failure detector), keeping
// fault tests deterministic.
func (c *Cluster) Runtime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	cfg = c.runtimeConfig(clientSeed, cfg)
	cfg.Client = c.Net
	cfg.Alive = c.Net.Alive
	return dtm.New(cfg)
}

// DetectorRuntime creates a client runtime WITHOUT the network's liveness
// oracle: node health is known only through the runtime's failure detector,
// exactly as on a real transport where no oracle exists. Chaos tests use it
// to exercise detector-driven failover end to end.
func (c *Cluster) DetectorRuntime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	cfg = c.runtimeConfig(clientSeed, cfg)
	cfg.Client = c.Net
	cfg.Alive = nil
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
	c.stopResolvers()
	c.Net.Close()
	c.closeWALs()
}

func (d *deployment) stopResolvers() {
	for _, n := range d.Nodes {
		n.StopResolver()
	}
}

// closeWALs flushes and closes every node's commit log (a clean shutdown,
// not a crash).
func (d *deployment) closeWALs() {
	for _, n := range d.Nodes {
		if w := n.WAL(); w != nil {
			w.Close()
		}
	}
}

// WALStats sums the commit-log counters across all nodes (zero value on a
// volatile cluster).
func (d *deployment) WALStats() dtm.WALStats {
	var out dtm.WALStats
	for _, n := range d.Nodes {
		w := n.WAL()
		if w == nil {
			continue
		}
		s := w.Stats()
		ns := dtm.WALStats{
			Appends:            s.Appends,
			Records:            s.Records,
			Fsyncs:             s.Fsyncs,
			MaxBatch:           s.MaxBatch,
			Snapshots:          s.Snapshots,
			SegmentsRemoved:    s.SegmentsRemoved,
			CheckpointFailures: s.CheckpointFailures,
			ReplayedRecords:    s.ReplayedRecords,
			ReplayedSnapshots:  s.ReplayedSnapshot,
		}
		if s.TornTailTruncated {
			ns.TornTails = 1
		}
		out.Add(ns)
	}
	return out
}

// Resolution sums the termination-protocol counters across all nodes (the
// InDoubt field is the cluster-wide count of currently undecided votes).
func (d *deployment) Resolution() server.ResolutionStats {
	var out server.ResolutionStats
	for _, n := range d.Nodes {
		out.Add(n.ResolutionStats())
	}
	return out
}

// Forensics merges the per-node abort-forensics snapshots — the server-side
// conflict witnesses — into one. topK bounds each node's hot-key table. It
// returns an empty snapshot on a NoForensics cluster.
func (d *deployment) Forensics(topK int) *forensics.Snapshot {
	doc := d.inspect("", topK)
	return &doc.Forensics
}

// inspect merges every node's debug document in process — what a
// dtm.Inspect over the network assembles from the same Node method.
func (d *deployment) inspect(traceID string, topK int) forensics.Document {
	var out forensics.Document
	for _, n := range d.Nodes {
		out.Merge(n.Inspect(traceID, topK))
	}
	return out
}

// Admission sums the overload-protection counters across all nodes.
func (d *deployment) Admission() server.AdmissionStats {
	var out server.AdmissionStats
	for _, n := range d.Nodes {
		out.Add(n.AdmissionStats())
	}
	return out
}

// Spans merges the spans recorded by every node, optionally filtered to one
// trace ID (empty for everything). Nil on an untraced cluster.
func (d *deployment) Spans(traceID string) []trace.Span {
	return d.inspect(traceID, 0).Spans
}

// FsyncWait merges the per-node group-commit wait histograms into one.
func (d *deployment) FsyncWait() *metrics.LatencyHistogram {
	return d.mergeStage(func(s *server.StageLatencies) *metrics.LatencyHistogram { return &s.FsyncWait })
}

// CheckpointHold merges the per-node checkpoint exclusive-section histograms
// into one.
func (d *deployment) CheckpointHold() *metrics.LatencyHistogram {
	return d.mergeStage(func(s *server.StageLatencies) *metrics.LatencyHistogram { return &s.CheckpointHold })
}

func (d *deployment) mergeStage(pick func(*server.StageLatencies) *metrics.LatencyHistogram) *metrics.LatencyHistogram {
	out := &metrics.LatencyHistogram{}
	for _, n := range d.Nodes {
		out.Merge(pick(n.Stages()))
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
