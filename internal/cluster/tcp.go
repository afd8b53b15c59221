package cluster

import (
	"fmt"
	"sync"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wal"
)

// TCPConfig sizes a loopback TCP deployment.
type TCPConfig struct {
	// Servers is the number of quorum nodes (default 4).
	Servers int
	// Degree is the quorum tree fan-out (default 3).
	Degree int
	// Shards, when > 1, partitions the Servers into that many independent
	// quorum groups (see cluster.Config.Shards). Durable nodes keep their
	// logs under WALDir/shard-s/node-i.
	Shards int
	// StatsWindow is the contention observation window.
	StatsWindow time.Duration
	// Compress enables flate compression of large frames.
	Compress bool
	// ProtectTTL, when positive, enables lease expiry of protections so the
	// cluster self-heals from clients killed mid-commit.
	ProtectTTL time.Duration
	// Now injects a clock for server meters (nil: time.Now).
	Now func() time.Time
	// WALDir, when non-empty, makes every node durable: node i logs its
	// commits under WALDir/node-i, Kill crashes the log without flushing,
	// and Restart replays snapshot+log before serving (recovery handshake).
	// Empty keeps the pre-WAL volatile behaviour.
	WALDir string
	// FsyncInterval is the group-commit accumulation window (0: wal default;
	// negative: fsync every append).
	FsyncInterval time.Duration
	// SnapshotEvery is the automatic checkpoint threshold in records
	// (0: server default; negative: only explicit checkpoints).
	SnapshotEvery int
	// ResolveAfter is how long a participant's yes vote may sit undecided
	// before it queries its quorum peers for the outcome (0: server
	// default 5s).
	ResolveAfter time.Duration
	// TTLAbortAfter is the last-resort in-doubt abort deadline (0: server
	// default 60s). Must exceed the coordinators' decide budget.
	TTLAbortAfter time.Duration
	// MaxInflight, when positive, bounds concurrently executing gated
	// requests per node (admission control; see cluster.Config.MaxInflight).
	MaxInflight int
	// QueueDepth bounds the per-node admission wait queue (0 with
	// MaxInflight set: 4×MaxInflight).
	QueueDepth int
	// MaxQueueAge is the admission queue's adaptive-LIFO threshold (0:
	// server default 100ms).
	MaxQueueAge time.Duration
}

// TCPCluster is a multi-listener deployment on the loopback interface: the
// same quorum-node logic as the in-process cluster, but every message
// crosses a real TCP connection in binary frames. Useful for integration
// tests and as a template for multi-machine deployment with cmd/qracn-node.
type TCPCluster struct {
	Tree  *quorum.Tree
	Nodes []*server.Node
	// Shards is the cluster's shard map (nil when unsharded).
	Shards *shard.Map

	servers     []*transport.TCPServer
	addrs       map[quorum.NodeID]string
	compress    bool
	statsWindow time.Duration
	protectTTL  time.Duration
	now         func() time.Time

	walDir        string
	fsyncInterval time.Duration
	snapshotEvery int
	resolveAfter  time.Duration
	ttlAbortAfter time.Duration
	maxInflight   int
	queueDepth    int
	maxQueueAge   time.Duration

	mu           sync.Mutex
	clients      []*transport.TCPClient
	resolversOn  bool
	resolverPoll time.Duration
}

// Durable reports whether the cluster's nodes write commit logs.
func (c *TCPCluster) Durable() bool { return c.walDir != "" }

// newNode builds a quorum node with the cluster's store/meter tuning.
func (c *TCPCluster) newNode(id quorum.NodeID, log *wal.Log) *server.Node {
	n := server.NewNode(id, server.Config{
		StatsWindow:   c.statsWindow,
		Now:           c.now,
		WAL:           log,
		SnapshotEvery: c.snapshotEvery,
		ResolveAfter:  c.resolveAfter,
		TTLAbortAfter: c.ttlAbortAfter,
		Shards:        c.Shards,
		MaxInflight:   c.maxInflight,
		QueueDepth:    c.queueDepth,
		MaxQueueAge:   c.maxQueueAge,
	})
	if c.protectTTL > 0 {
		n.Store().SetProtectTTL(c.protectTTL, c.now)
	}
	return n
}

// NewTCP starts the servers and returns the running cluster.
func NewTCP(cfg TCPConfig) (*TCPCluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 4
	}
	if cfg.Degree == 0 {
		cfg.Degree = 3
	}
	c := &TCPCluster{
		Tree:          quorum.NewTree(cfg.Servers, cfg.Degree),
		addrs:         make(map[quorum.NodeID]string),
		compress:      cfg.Compress,
		statsWindow:   cfg.StatsWindow,
		protectTTL:    cfg.ProtectTTL,
		now:           cfg.Now,
		walDir:        cfg.WALDir,
		fsyncInterval: cfg.FsyncInterval,
		snapshotEvery: cfg.SnapshotEvery,
		resolveAfter:  cfg.ResolveAfter,
		ttlAbortAfter: cfg.TTLAbortAfter,
		maxInflight:   cfg.MaxInflight,
		queueDepth:    cfg.QueueDepth,
		maxQueueAge:   cfg.MaxQueueAge,
	}
	if cfg.Shards > 1 {
		c.Shards = shard.NewUniform(cfg.Servers, cfg.Shards, cfg.Degree)
	}
	for i := 0; i < cfg.Servers; i++ {
		id := quorum.NodeID(i)
		var log *wal.Log
		if c.Durable() {
			var rec *wal.Recovered
			var err error
			log, rec, err = openNodeWAL(c.walDir, c.Shards, id, c.fsyncInterval)
			if err != nil {
				c.Close()
				return nil, err
			}
			n := c.newNode(id, log)
			// A pre-existing log (re-opened directory) seeds the replica,
			// including any in-doubt prepares and decided outcomes.
			n.FinishRecovery(rec)
			c.Nodes = append(c.Nodes, n)
		} else {
			c.Nodes = append(c.Nodes, c.newNode(id, nil))
		}
		srv := transport.NewTCPServer(c.Nodes[i].Handle, cfg.Compress)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.addrs[id] = addr
	}
	return c, nil
}

// Addrs returns the node address map (for external clients).
func (c *TCPCluster) Addrs() map[quorum.NodeID]string {
	out := make(map[quorum.NodeID]string, len(c.addrs))
	for k, v := range c.addrs {
		out[k] = v
	}
	return out
}

// Seed installs the same objects on every replica. On a durable cluster the
// seeded baseline is immediately checkpointed, so a node killed before its
// first commit still recovers the full object space.
func (c *TCPCluster) Seed(objs map[store.ObjectID]store.Value) {
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
		_ = n.Checkpoint()
	}
}

// Runtime creates a client runtime connected over TCP. The cluster owns the
// connection and closes it on Close. DecideTimeout is clamped below the
// cluster's TTL-abort deadline (the termination-protocol safety invariant;
// see dtm.ClampDecideTimeout). Safe for concurrent use.
func (c *TCPCluster) Runtime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	client := transport.NewTCPClient(c.Addrs(), c.compress)
	c.mu.Lock()
	c.clients = append(c.clients, client)
	c.mu.Unlock()
	cfg.Tree = c.Tree
	cfg.Shards = c.Shards
	cfg.Client = client
	cfg.ClientSeed = clientSeed
	ttl := c.ttlAbortAfter
	if ttl <= 0 {
		ttl = server.DefaultTTLAbortAfter
	}
	cfg.DecideTimeout = dtm.ClampDecideTimeout(cfg.DecideTimeout, ttl)
	rt := dtm.New(cfg)
	client.SetRetryCounter(&rt.Metrics().TransportRetries)
	return rt
}

// Kill stops node id's listener and drops its connections, simulating a
// process crash. Clients see refused dials until Restart. On a durable
// cluster the node's commit log is crashed too — abandoned without a final
// flush — so only group-commit-synced (i.e. acknowledged) appends survive,
// exactly what a real power cut leaves behind.
func (c *TCPCluster) Kill(id quorum.NodeID) {
	c.Nodes[id].StopResolver()
	c.servers[id].Close()
	if w := c.Nodes[id].WAL(); w != nil {
		w.Crash()
	}
}

// StartResolvers launches every node's background termination loop, each
// over its own TCP peer client. Restarted nodes rejoin the protocol
// automatically; Close stops the loops and their connections.
func (c *TCPCluster) StartResolvers(pollEvery time.Duration) {
	c.mu.Lock()
	c.resolversOn, c.resolverPoll = true, pollEvery
	c.mu.Unlock()
	for _, n := range c.Nodes {
		c.startNodeResolver(n)
	}
}

func (c *TCPCluster) startNodeResolver(n *server.Node) {
	client := transport.NewTCPClient(c.Addrs(), c.compress)
	c.mu.Lock()
	c.clients = append(c.clients, client)
	poll := c.resolverPoll
	c.mu.Unlock()
	n.StartResolver(client, poll)
}

// Resolution sums the termination-protocol counters across all nodes.
func (c *TCPCluster) Resolution() dtm.ResolutionStats {
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

// Admission sums the overload-protection counters across all nodes.
func (c *TCPCluster) Admission() server.AdmissionStats {
	var out server.AdmissionStats
	for _, n := range c.Nodes {
		out.Add(n.AdmissionStats())
	}
	return out
}

// Restart brings a killed node back on its original address.
//
// On a durable cluster every restart is a cold process start that recovers
// from disk: the listener comes up first on a recovering node (clients get
// StatusUnavailable and fail over — the recovery handshake), the node
// replays its newest snapshot plus the log tail, then opens for service
// already version-current. The cold flag is ignored; the WAL is the state.
//
// On a volatile cluster, cold true restarts with an empty replica (a crash
// that lost its state — the path read-repair and anti-entropy exist for);
// otherwise the node rejoins with the state it had when killed (a process
// pause or partition).
func (c *TCPCluster) Restart(id quorum.NodeID, cold bool) error {
	if c.Durable() {
		n := c.newNode(id, nil)
		n.BeginRecovery()
		srv := transport.NewTCPServer(n.Handle, c.compress)
		addr, err := srv.Listen(c.addrs[id])
		if err != nil {
			return fmt.Errorf("cluster: restart node %d: %w", id, err)
		}
		log, rec, err := openNodeWAL(c.walDir, c.Shards, id, c.fsyncInterval)
		if err != nil {
			srv.Close()
			return fmt.Errorf("cluster: restart: %w", err)
		}
		n.AttachWAL(log)
		n.FinishRecovery(rec)
		c.Nodes[id] = n
		c.servers[id] = srv
		c.addrs[id] = addr
		c.mu.Lock()
		on := c.resolversOn
		c.mu.Unlock()
		if on {
			c.startNodeResolver(n)
		}
		return nil
	}
	if cold {
		c.Nodes[id] = c.newNode(id, nil)
	}
	srv := transport.NewTCPServer(c.Nodes[id].Handle, c.compress)
	addr, err := srv.Listen(c.addrs[id])
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", id, err)
	}
	c.servers[id] = srv
	c.addrs[id] = addr
	c.mu.Lock()
	on := c.resolversOn
	c.mu.Unlock()
	if on {
		c.startNodeResolver(c.Nodes[id])
	}
	return nil
}

// WALStats sums the commit-log counters across all nodes (zero value on a
// volatile cluster).
func (c *TCPCluster) WALStats() dtm.WALStats {
	var out dtm.WALStats
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			out.Add(walStatsFor(w))
		}
	}
	return out
}

// walStatsFor converts one log's counters into the dtm aggregate form.
func walStatsFor(w *wal.Log) dtm.WALStats {
	s := w.Stats()
	out := dtm.WALStats{
		Appends:           s.Appends,
		Records:           s.Records,
		Fsyncs:            s.Fsyncs,
		MaxBatch:          s.MaxBatch,
		Snapshots:         s.Snapshots,
		SegmentsRemoved:   s.SegmentsRemoved,
		ReplayedRecords:   s.ReplayedRecords,
		ReplayedSnapshots: s.ReplayedSnapshot,
	}
	if s.TornTailTruncated {
		out.TornTails = 1
	}
	return out
}

// Close tears down all clients, servers, and commit logs (logs are flushed,
// not crashed — Close is a clean shutdown).
func (c *TCPCluster) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, n := range c.Nodes {
		n.StopResolver()
	}
	for _, cl := range clients {
		cl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			w.Close()
		}
	}
}
