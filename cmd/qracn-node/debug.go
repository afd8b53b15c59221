package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"qracn/internal/forensics"
	"qracn/internal/metrics"
	"qracn/internal/server"
)

// debugMux builds the node's operational HTTP endpoint: Prometheus-style
// /metrics rendered per scrape from the live counters, Go's expvar page,
// and the standard pprof profiling handlers.
func debugMux(node *server.Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e := nodeExposition(node)
		_, _ = e.WriteTo(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "qracn-node %d\n/metrics\n/debug/vars\n/debug/pprof/\n", node.ID())
	})
	return mux
}

// nodeExposition renders the node's live counters as one Prometheus text
// page: request-stage latency histograms, the store size, and (on durable
// nodes) the commit-log counters.
func nodeExposition(node *server.Node) *metrics.Exposition {
	e := &metrics.Exposition{}
	st := node.Stages()
	e.Histogram("qracn_node_read_serve_seconds", "Time serving one read or batched-read request.", &st.ReadServe)
	e.Histogram("qracn_node_read_wait_seconds", "Time a read of an exclusively protected object waited for the holder's decision before it was served.", &st.ReadWait)
	e.Counter("qracn_node_read_wait_capped_total", "Read waits that gave up at their bound; those reads answered busy.", st.ReadWaitCapped.Load())
	e.Histogram("qracn_node_prepare_serve_seconds", "Time serving one 2PC prepare request.", &st.PrepareServe)
	e.Histogram("qracn_node_commit_apply_seconds", "Time applying one commit decision (including WAL append).", &st.CommitApply)
	e.Histogram("qracn_node_repair_apply_seconds", "Time applying one read-repair push.", &st.RepairApply)
	e.Histogram("qracn_node_fsync_wait_seconds", "Time a forced log append (yes vote, commit decision) waited for its fsync.", &st.FsyncWait)
	e.Histogram("qracn_node_checkpoint_hold_seconds", "Time a checkpoint's cut held the commit lock exclusively (prepares and decisions wait for it).", &st.CheckpointHold)
	e.Gauge("qracn_node_store_objects", "Objects currently resident in the replica store.", float64(node.Store().Len()))
	recovering := 0.0
	if node.Recovering() {
		recovering = 1
	}
	e.Gauge("qracn_node_recovering", "1 while the node is replaying its log and refusing work.", recovering)
	rs := node.ResolutionStats()
	e.Gauge("qracn_node_in_doubt", "Yes votes currently awaiting a 2PC decision (in-doubt table size).", float64(rs.InDoubt))
	e.Counter("qracn_resolution_recovered_in_doubt_total", "In-doubt votes rebuilt from the WAL at restart.", rs.RecoveredInDoubt)
	e.Counter("qracn_resolution_coordinator_decided_total", "Overdue votes the coordinator still decided before a peer did.", rs.CoordinatorDecided)
	e.Counter("qracn_resolution_peer_commits_total", "In-doubt votes committed from a quorum peer's decision.", rs.PeerCommits)
	e.Counter("qracn_resolution_peer_aborts_total", "In-doubt votes aborted from a quorum peer's answer.", rs.PeerAborts)
	e.Counter("qracn_resolution_ttl_aborts_total", "In-doubt votes aborted by the last-resort TTL after a complete all-in-doubt peer round.", rs.TTLAborts)
	e.Counter("qracn_resolution_status_queries_total", "KindTxStatus queries this node sent while resolving.", rs.StatusQueries)
	e.Counter("qracn_resolution_forwards_total", "Decisions this node forwarded to still-in-doubt peers.", rs.ResolveForwards)
	as := node.AdmissionStats()
	e.Counter("qracn_admission_admitted_total", "Gated requests that acquired an execution slot.", as.Admitted)
	e.Counter("qracn_admission_shed_total", "Gated requests answered StatusOverloaded instead of executing.", as.Shed)
	e.Counter("qracn_admission_expired_total", "Requests rejected because their propagated deadline had already passed on arrival.", as.Expired)
	if fr := node.Forensics(); fr != nil {
		e.Counter("qracn_forensics_abort_events_total", "Conflict events this node attributed (validation invalidations and busy refusals observed server-side).", fr.TotalAborts())
		var byCause [forensics.NumCauses]uint64
		for _, ev := range fr.Aborts() {
			if int(ev.Cause) < len(byCause) {
				byCause[ev.Cause]++
			}
		}
		for c := forensics.CauseUnknown + 1; c < forensics.NumCauses; c++ {
			e.Gauge("qracn_forensics_ring_"+strings.ReplaceAll(c.String(), "-", "_"),
				"Events of this cause currently buffered in the forensic ring.", float64(byCause[c]))
		}
		if hot := fr.HotKeys(1); len(hot) > 0 {
			e.Gauge("qracn_forensics_top_key_conflicts", "Conflict tally of the currently hottest key ("+hot[0].Key+").", float64(hot[0].Conflicts))
		}
	}
	if w := node.WAL(); w != nil {
		ws := w.Stats()
		e.Counter("qracn_wal_appends_total", "Commit-log append calls (one per durable decision).", ws.Appends)
		e.Counter("qracn_wal_records_total", "Individual commit-log records written.", ws.Records)
		e.Counter("qracn_wal_fsyncs_total", "Physical fsync batches (appends/fsyncs = group-commit factor).", ws.Fsyncs)
		e.Gauge("qracn_wal_max_batch", "Largest number of appends retired by one fsync.", float64(ws.MaxBatch))
		e.Counter("qracn_wal_snapshots_total", "Store checkpoints taken.", ws.Snapshots)
		e.Counter("qracn_wal_segments_removed_total", "Log segments compacted away by checkpoints.", ws.SegmentsRemoved)
		e.Counter("qracn_wal_checkpoint_failures_total", "Checkpoints that failed; the next attempt waits for another trigger's worth of records.", ws.CheckpointFailures)
	}
	return e
}

// serveDebug starts the debug listener; it returns the bound address.
func serveDebug(addr string, node *server.Node) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, debugMux(node))
	}()
	return ln.Addr().String(), nil
}
