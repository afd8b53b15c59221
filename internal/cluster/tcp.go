package cluster

import (
	"fmt"
	"sync"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/transport"
)

// TCPCluster is a multi-listener deployment on the loopback interface: the
// same quorum-node logic as the in-process cluster, but every message
// crosses a real TCP connection in binary frames. Useful for integration
// tests and as a template for multi-machine deployment with cmd/qracn-node.
//
// It is a second type rather than a transport parameter of Cluster because
// the lifecycle differs in kind: Cluster.Kill is a partition (the replica
// keeps its state and its process), TCPCluster.Kill is a process crash.
type TCPCluster struct {
	deployment

	servers []*transport.TCPServer
	addrs   map[quorum.NodeID]string

	mu           sync.Mutex
	clients      []*transport.TCPClient
	resolversOn  bool
	resolverPoll time.Duration
}

// NewTCP starts the servers and returns the running cluster. cfg.Network is
// not used (the network is the loopback interface); a pre-existing log under
// cfg.WALDir seeds each replica, including any in-doubt prepares and decided
// outcomes.
func NewTCP(cfg Config) (*TCPCluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 4
	}
	c := &TCPCluster{deployment: newDeployment(cfg), addrs: make(map[quorum.NodeID]string)}
	for i := 0; i < cfg.Servers; i++ {
		id := quorum.NodeID(i)
		n, err := c.buildNode(id)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
		srv := transport.NewTCPServer(n.Handle, cfg.Compress)
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

// Seed installs objects like Cluster.Seed and, on a durable cluster,
// immediately checkpoints the seeded baseline, so a node killed before its
// first commit still recovers the full object space.
func (c *TCPCluster) Seed(objs map[store.ObjectID]store.Value) {
	c.deployment.Seed(objs)
	for _, n := range c.Nodes {
		_ = n.Checkpoint()
	}
}

// newClient opens a TCP client the cluster owns and closes on Close.
func (c *TCPCluster) newClient() *transport.TCPClient {
	client := transport.NewTCPClient(c.Addrs(), c.cfg.Compress)
	c.mu.Lock()
	c.clients = append(c.clients, client)
	c.mu.Unlock()
	return client
}

// Runtime creates a client runtime connected over TCP, configured like
// Cluster.Runtime (deployment identity filled in, forensics settings
// inherited, DecideTimeout clamped). The cluster owns the connection and
// closes it on Close. Safe for concurrent use.
func (c *TCPCluster) Runtime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	client := c.newClient()
	cfg = c.runtimeConfig(clientSeed, cfg)
	cfg.Client = client
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
		n.StartResolver(c.newClient(), pollEvery)
	}
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
	n := c.Nodes[id]
	if c.Durable() || cold {
		n = c.newNode(id, nil)
	}
	if c.Durable() {
		n.BeginRecovery()
	}
	srv := transport.NewTCPServer(n.Handle, c.cfg.Compress)
	addr, err := srv.Listen(c.addrs[id])
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", id, err)
	}
	if c.Durable() {
		log, rec, err := c.openWAL(id)
		if err != nil {
			srv.Close()
			return fmt.Errorf("cluster: restart: %w", err)
		}
		n.AttachWAL(log)
		n.FinishRecovery(rec)
	}
	c.Nodes[id] = n
	c.servers[id] = srv
	c.addrs[id] = addr
	c.mu.Lock()
	on, poll := c.resolversOn, c.resolverPoll
	c.mu.Unlock()
	if on {
		n.StartResolver(c.newClient(), poll)
	}
	return nil
}

// Close tears down all clients, servers, and commit logs (logs are flushed,
// not crashed — Close is a clean shutdown).
func (c *TCPCluster) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	c.stopResolvers()
	for _, cl := range clients {
		cl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	c.closeWALs()
}
