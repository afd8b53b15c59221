// Package flags declares once each command-line flag that several commands
// bind to the same config field: one default and one help text per name.
package flags

import (
	"flag"

	"qracn/internal/dtm"
	"qracn/internal/server"
)

// Client binds the flags qracn-client and qracn-bench share to c's fields.
func Client(fs *flag.FlagSet, c *dtm.Config) {
	fs.BoolVar(&c.NoRepair, "no-repair", false, "disable asynchronous read-repair of quorum members observed behind the quorum-max version")
	fs.DurationVar(&c.DecideTimeout, "decide-timeout", 0, "budget for delivering a 2PC decision after a yes-vote quorum (0: 10s default; keep below the nodes' -ttl-abort-after)")
	fs.DurationVar(&c.TxDeadline, "tx-deadline", 0, "end-to-end deadline per transaction, propagated on every request so servers refuse already-expired work (0: none)")
	fs.IntVar(&c.RetryBudget, "retry-budget", 0, "retries per transaction attempt shared across quorum failover and overload backoff (0: 1000 default; negative: unlimited)")
	fs.DurationVar(&c.HedgeAfter, "hedge-after", 0, "hedge quorum reads to one spare replica after this delay (0: off; negative: from the observed p99 read latency)")
	fs.IntVar(&c.TraceSample, "trace-sample", 1, "with tracing on, record spans for one in N top-level transactions (0/1: all; negative: none)")
}

// Node binds the flags qracn-node and qracn-bench share to c's fields.
func Node(fs *flag.FlagSet, c *server.Config) {
	fs.IntVar(&c.SnapshotEvery, "snapshot-every", 0, "checkpoint the store in the background once N records, or the last snapshot's size if larger, are logged since the last one (0: default 4096; negative: never)")
	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "admission control: max concurrently executing gated requests per node (0: gate off)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 0, "admission wait-queue depth; beyond it requests are shed with StatusOverloaded (0: 4x -max-inflight)")
}

// Forensics binds the abort-forensics flags all three commands take to a
// config's ForensicsRing and NoForensics fields.
func Forensics(fs *flag.FlagSet, ring *int, off *bool) {
	fs.IntVar(ring, "forensics-ring", 0, "capacity of each abort-forensics event ring (0: 4096 default)")
	fs.BoolVar(off, "no-forensics", false, "disable abort forensics entirely: no conflict rings, no conflict witnesses; per-cause counters keep counting")
}
