package main

import (
	"fmt"
	"os"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

// Load shape shared by every workload (see README.md, "Load shape").
const (
	numServers       = 10
	treeDegree       = 3
	numClients       = 2
	threadsPerClient = 2
	inFlight         = numClients * threadsPerClient
	netLatency       = 60 * time.Microsecond
	netJitter        = 30 * time.Microsecond
	statsEveryNReads = 16
	backoffBase      = 50 * time.Microsecond
	backoffMax       = time.Millisecond
)

// Inputs of the two TPC-C shapes and the Bank shape, named for the paper's
// figures they come from.
var (
	fig4a = tpcc.Config{Warehouses: 1, Districts: 4, CustomersPerDistrict: 20, Items: 100, MixNewOrder: 100}
	fig4d = tpcc.Config{Warehouses: 4, Districts: 10, CustomersPerDistrict: 20, Items: 100, MixDelivery: 100}
	// Fig. 4(f) runs 90 % transfers; 70 % keeps enough read-only balance
	// queries that a change favouring readers over writers (or the reverse)
	// shows in throughput.
	bankShift = bank.Config{Branches: 50, Accounts: 1000, HotBranches: 8, HotAccounts: 8, WritePct: 70, InitialBalance: 1_000_000}
)

// workloadSpec is one fixed benchmark workload.
type workloadSpec struct {
	name    string
	build   func() workload.Workload
	shards  int  // quorum groups (1: one cluster-wide tree)
	durable bool // every node logs to a WAL in a fresh directory
	// shift flips the workload's contention phase at each third of the
	// measured window (measured intervals 3 and 6 of 9).
	shift bool
	// check verifies the final state read back through a client against the
	// number of acknowledged commits; slack is how many more commits than
	// acknowledgements the state may show (transactions cancelled at
	// shutdown, normally 0).
	check func(st state, acked, slack uint64) error
	// ids lists the objects check needs, given what an earlier read showed
	// (nil on the first call).
	ids func(st state) []store.ObjectID
}

// newOrder is the volatile NewOrder workload; the durable one differs from it
// in name and in the WAL only.
var newOrder = workloadSpec{
	name:  "neworder-acn",
	build: func() workload.Workload { return tpcc.New(fig4a) },
	check: func(st state, acked, slack uint64) error { return checkNewOrder(st, fig4a, acked, slack) },
	ids:   func(st state) []store.ObjectID { return newOrderIDs(st, fig4a) },
}

var workloads = []*workloadSpec{
	&newOrder,
	func() *workloadSpec {
		w := newOrder
		w.name, w.durable = "neworder-durable", true
		return &w
	}(),
	{
		name:   "delivery-sharded",
		build:  func() workload.Workload { return tpcc.New(fig4d) },
		shards: 4,
		check:  func(st state, acked, slack uint64) error { return checkDelivery(st, fig4d, acked, slack) },
		ids:    func(state) []store.ObjectID { return deliveryIDs(fig4d) },
	},
	{
		name:  "bank-shift",
		build: func() workload.Workload { return bank.New(bankShift) },
		shift: true,
		check: func(st state, _, _ uint64) error { return checkBank(st, bankShift) },
		ids:   func(state) []store.ObjectID { return bankIDs(bankShift) },
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// phaseFor maps a measured interval to the workload's contention phase.
func (w *workloadSpec) phaseFor(measuredIdx, measured int) int {
	if !w.shift || measuredIdx < 0 {
		return 0
	}
	return (measuredIdx * 3 / measured) % 2
}

// client is one client node: a runtime, one executor per transaction
// profile, and (QR-ACN only) the hub that recomposes them.
type client struct {
	rt    *dtm.Runtime
	execs []*acn.Executor
	hub   *acn.Hub
}

// system is a deployed cluster plus its client nodes, ready to take load.
type system struct {
	spec    *workloadSpec
	wl      workload.Workload
	cluster *cluster.Cluster
	clients []*client
	walDir  string // "" when volatile
}

// setupOptions are the per-pass choices setup needs.
type setupOptions struct {
	seed     int64
	interval time.Duration // contention-stats window and refresh cadence
	flat     bool          // QR-DTM (flat nesting, no hub) instead of QR-ACN
	col      *collector    // non-nil: wrap the transport and handler seams
	tmpDir   string        // parent for WAL directories
}

// setup builds everything a pass needs before load starts: static analysis,
// the cluster (opening WALs on a durable workload), seeding, client
// runtimes, executors and hubs. Its wall time is the setup_s metric.
func setup(spec *workloadSpec, o setupOptions) (*system, error) {
	sys := &system{spec: spec, wl: spec.build()}
	profiles := sys.wl.Profiles()
	analyses := make([]*unitgraph.Analysis, len(profiles))
	for i, p := range profiles {
		an, err := unitgraph.Analyze(p.Program)
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", p.Name, err)
		}
		analyses[i] = an
	}

	ccfg := cluster.Config{
		Servers: numServers,
		Degree:  treeDegree,
		Shards:  spec.shards,
		Network: transport.ChannelConfig{
			Latency: netLatency,
			Jitter:  netJitter,
			Seed:    o.seed,
			Codec:   wire.Binary,
		},
		StatsWindow: o.interval,
	}
	if spec.durable {
		dir, err := os.MkdirTemp(o.tmpDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		sys.walDir = dir
		ccfg.WALDir = dir
	}
	c, err := cluster.NewDurable(ccfg)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.cluster = c
	c.Seed(sys.wl.SeedObjects())
	if spec.durable {
		// Seeding bypasses the log; a checkpoint makes the seeded rows
		// (some are never written, e.g. warehouse and item) survive the
		// crash-restart the durability check performs.
		for _, n := range c.Nodes {
			if err := n.Checkpoint(); err != nil {
				sys.close()
				return nil, fmt.Errorf("checkpoint seed on node %d: %w", n.ID(), err)
			}
		}
	}
	var net transport.Client = c.Net
	if o.col != nil {
		net = &tracedClient{col: o.col, inner: c.Net}
		for _, n := range c.Nodes {
			c.Net.Register(n.ID(), o.col.timedHandler(n.ID(), n.Handle))
		}
	}

	for ci := 0; ci < numClients; ci++ {
		cl := &client{}
		dcfg := dtm.Config{
			Tree:          c.Tree,
			Shards:        c.Shards,
			Client:        net,
			Alive:         c.Net.Alive,
			ClientSeed:    ci + 1,
			Seed:          o.seed + int64(ci) + 1,
			BackoffBase:   backoffBase,
			BackoffMax:    backoffMax,
			DecideTimeout: dtm.ClampDecideTimeout(0, server.DefaultTTLAbortAfter),
		}
		if !o.flat {
			dcfg.StatsEveryNReads = statsEveryNReads
			dcfg.StatsWanted = func() []store.ObjectID {
				if cl.hub == nil {
					return nil
				}
				return cl.hub.Wanted()
			}
			dcfg.StatsSink = func(levels map[store.ObjectID]float64) {
				if cl.hub != nil {
					cl.hub.Sink(levels)
				}
			}
		}
		cl.rt = dtm.New(dcfg)
		if !o.flat {
			cl.hub = acn.NewHub(cl.rt, acn.HubConfig{})
		}
		for pi := range profiles {
			comp := acn.Static(analyses[pi])
			if o.flat {
				comp = acn.Flat(analyses[pi])
			}
			exec := acn.NewExecutor(cl.rt, analyses[pi], comp)
			cl.execs = append(cl.execs, exec)
			if cl.hub != nil {
				cl.hub.Register(exec, acn.AlgoConfig{})
			}
		}
		sys.clients = append(sys.clients, cl)
	}
	return sys, nil
}

// auditRuntime returns a fresh untraced client for reading state back.
func (s *system) auditRuntime() *dtm.Runtime {
	return s.cluster.Runtime(99, dtm.Config{Seed: 99, BackoffBase: backoffBase, BackoffMax: backoffMax})
}

// close shuts the cluster down and removes its WAL directory.
func (s *system) close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}
