// Command qracn-node runs one quorum node as a standalone TCP server, for
// multi-process (or multi-machine) deployments of the DTM. Clients connect
// with cmd/qracn-client or a TCPClient built from the library.
//
// The server speaks the batched RPC pipeline: KindBatch requests fan their
// sub-requests out to concurrent goroutines, each request runs under a
// context that a client cancel frame (or a dropped connection) cancels,
// and both stream directions use persistent encoders with coalesced writes.
// A connection must open with the two-byte protocol-version preamble; one
// that does not (a pre-binary gob client, say) is closed unanswered.
//
// With -wal-dir the node is durable: commits are appended to a write-ahead
// log and group-commit fsynced before they are acknowledged, the store is
// periodically checkpointed into snapshots, and a restart replays
// snapshot+log — answering pings but refusing work with StatusUnavailable
// until the replay has finished. A log written in the pre-binary gob format
// is refused at startup and left untouched (wal.ErrLegacyFormat).
//
// Usage:
//
//	qracn-node -id 0 -listen :7450
//	qracn-node -id 1 -listen :7451 -stats-window 10s -compress
//	qracn-node -id 2 -listen :7452 -wal-dir /var/lib/qracn/node-2 -fsync-interval 10ms
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wal"
)

func main() {
	// scfg is the node's configuration; each tuning flag writes its field.
	var scfg server.Config
	var (
		id          = flag.Int("id", 0, "this node's position in the quorum tree (0 = root)")
		listen      = flag.String("listen", ":7450", "TCP listen address")
		protectTTL  = flag.Duration("protect-ttl", 30*time.Second, "lease expiry for protections left by crashed clients (0 disables)")
		compress    = flag.Bool("compress", false, "flate-compress large frames")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory; empty runs the node volatile")
		noWAL       = flag.Bool("no-wal", false, "force a volatile node even when -wal-dir is set")
		fsyncEvery  = flag.Duration("fsync-interval", 0, "linger bound of unforced log records (0: 10ms default)")
		traceCap    = flag.Int("trace", 0, "span/event ring size for distributed tracing; >0 turns tracing on (spans fetchable via qracn-inspect trace)")
		debugAddr   = flag.String("debug-addr", "", "HTTP listen address for /metrics, /debug/vars and /debug/pprof (empty disables)")
		unsafeTTL   = flag.Bool("unsafe-ttl-abort", false, "allow -ttl-abort-after at or below the default client -decide-timeout (only safe when every client runs with a smaller -decide-timeout)")
		peersArg    = flag.String("peers", "", "comma-separated addresses of ALL nodes in tree order (node 0 first, this node included); enables the background cooperative-termination resolver")
		shardMap    = flag.String("shard-map", "", "keyspace shard map as semicolon-separated quorum groups of node IDs (e.g. \"0-2;3-5\"); the node serves it to clients and scopes itself to its own group")
		shardID     = flag.Int("shard-id", -1, "this node's shard index in -shard-map (cross-checked against the map; -1 derives it from the map)")
		shardDegree = flag.Int("shard-degree", 0, "tree-quorum degree within each shard group (0: default 3)")
	)
	flag.DurationVar(&scfg.StatsWindow, "stats-window", 10*time.Second, "contention observation window (paper: 10s)")
	flag.IntVar(&scfg.SnapshotEvery, "snapshot-every", 0, "checkpoint the store in the background once N records, or the last snapshot's size if larger, are logged since the last one (0: default 4096; negative: never)")
	flag.DurationVar(&scfg.ResolveAfter, "resolve-after", 0, "how long a yes vote may sit undecided before this node queries its quorum peers for the outcome (0: 5s default)")
	flag.DurationVar(&scfg.TTLAbortAfter, "ttl-abort-after", 0, "last-resort abort deadline when a complete peer round finds every participant equally in doubt (0: 60s default; must exceed the clients' -decide-timeout)")
	flag.IntVar(&scfg.MaxInflight, "max-inflight", 0, "admission control: max concurrently executing gated requests (0 disables the gate)")
	flag.IntVar(&scfg.QueueDepth, "queue-depth", 0, "admission wait-queue depth; beyond it requests are shed with StatusOverloaded (0: 4x -max-inflight)")
	flag.DurationVar(&scfg.MaxQueueAge, "max-queue-age", 0, "admission queue age past which the gate flips to adaptive LIFO and sheds aged waiters (0: 100ms)")
	flag.IntVar(&scfg.ForensicsRing, "forensics-ring", 0, "abort-forensics event ring capacity (0: 4096 default); rings are fetchable via qracn-inspect forensics")
	flag.BoolVar(&scfg.NoForensics, "no-forensics", false, "disable abort forensics: no conflict rings, no conflict-witness piggyback on busy replies")
	flag.Parse()

	if *shardMap != "" {
		m, err := shard.Parse(*shardMap, 1, *shardDegree)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		home := m.HomeOf(quorum.NodeID(*id))
		if home < 0 {
			fmt.Fprintf(os.Stderr, "-shard-map %q does not place node %d in any group\n", *shardMap, *id)
			os.Exit(2)
		}
		if *shardID >= 0 && *shardID != home {
			fmt.Fprintf(os.Stderr, "-shard-id %d contradicts -shard-map %q, which homes node %d in shard %d\n", *shardID, *shardMap, *id, home)
			os.Exit(2)
		}
		scfg.Shards = m
	} else if *shardID >= 0 {
		fmt.Fprintln(os.Stderr, "-shard-id requires -shard-map")
		os.Exit(2)
	}

	// Termination-protocol deadline sanity. The TTL abort is only safe if
	// its deadline outlives both the resolver's first peer round and every
	// coordinator's decision-retry budget; this node cannot see the clients'
	// -decide-timeout flags, so the default budget is the best available
	// check — a misconfiguration against it is rejected rather than left to
	// silently permit a TTL abort racing a still-retrying commit delivery.
	resolve, ttl := scfg.ResolveAfter, scfg.TTLAbortAfter
	if resolve <= 0 {
		resolve = server.DefaultResolveAfter
	}
	if ttl <= 0 {
		ttl = server.DefaultTTLAbortAfter
	}
	if ttl <= resolve {
		fmt.Fprintf(os.Stderr, "-ttl-abort-after (%v) must exceed -resolve-after (%v)\n", ttl, resolve)
		os.Exit(2)
	}
	if ttl <= dtm.DefaultDecideTimeout {
		fmt.Fprintf(os.Stderr, "-ttl-abort-after (%v) must exceed the clients' decide budget (default -decide-timeout %v); raise it, or lower every client's -decide-timeout below it and pass -unsafe-ttl-abort\n", ttl, dtm.DefaultDecideTimeout)
		if !*unsafeTTL {
			os.Exit(2)
		}
	}

	durable := *walDir != "" && !*noWAL
	if *traceCap > 0 {
		scfg.Tracer = trace.New(*traceCap)
	}
	node := server.NewNode(quorum.NodeID(*id), scfg)
	if *protectTTL > 0 {
		node.Store().SetProtectTTL(*protectTTL, nil)
	}
	if durable {
		// Recovery handshake: the listener comes up first on a recovering
		// node, so restarting clients fail over instead of reading
		// pre-replay state; the replay below then opens the node.
		node.BeginRecovery()
	}
	srv := transport.NewTCPServer(node.Handle, *compress)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dbg, err := serveDebug(*debugAddr, node)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			srv.Close()
			os.Exit(1)
		}
		fmt.Printf("debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)\n", dbg)
	}
	if durable {
		log, rec, err := wal.Open(*walDir, wal.Options{FsyncInterval: *fsyncEvery})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			srv.Close()
			os.Exit(1)
		}
		node.AttachWAL(log)
		node.FinishRecovery(rec)
		fmt.Printf("qracn-node %d serving on %s (stats window %v, wal %s: %d snapshot objects + %d log records replayed)\n",
			*id, addr, scfg.StatsWindow, *walDir, rec.SnapshotObjects, rec.LogRecords)
	} else {
		fmt.Printf("qracn-node %d serving on %s (stats window %v, volatile)\n", *id, addr, scfg.StatsWindow)
	}
	if shards := scfg.Shards; shards != nil {
		fmt.Printf("shard %d of map %q (version %d, %d groups)\n",
			shards.HomeOf(quorum.NodeID(*id)), shards.String(), shards.Version(), shards.NumShards())
	}

	var peerClient *transport.TCPClient
	if *peersArg != "" {
		// The resolver queries quorum peers over its own TCP client, so
		// votes stranded by a crashed coordinator terminate without waiting
		// for protection leases to lapse.
		addrs := map[quorum.NodeID]string{}
		for i, a := range strings.Split(*peersArg, ",") {
			addrs[quorum.NodeID(i)] = strings.TrimSpace(a)
		}
		peerClient = transport.NewTCPClient(addrs, *compress)
		node.StartResolver(peerClient, 0)
		fmt.Printf("cooperative termination resolver on (%d peers)\n", len(addrs))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	node.StopResolver()
	if peerClient != nil {
		peerClient.Close()
	}
	srv.Close()
	if w := node.WAL(); w != nil {
		if err := node.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
		}
		if err := w.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wal close: %v\n", err)
		}
	}
}
