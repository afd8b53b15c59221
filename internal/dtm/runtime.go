package dtm

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"qracn/internal/backoff"
	"qracn/internal/forensics"
	"qracn/internal/health"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// Config parameterizes a client-side Runtime.
type Config struct {
	// Tree is the logical quorum tree shared by the whole cluster. May be
	// nil when Shards is set (each group then carries its own tree).
	Tree *quorum.Tree
	// Shards, when non-nil, routes every object access to its owning quorum
	// group: reads, prefetch batches, and contention-stats queries go to the
	// object's group, single-group transactions commit against that group's
	// write quorum alone, and transactions spanning several groups drive 2PC
	// across every touched group (prepares stamped with the union of all
	// groups' write-quorum members so cooperative termination can reach
	// across groups). Nil preserves the unsharded behaviour over Tree.
	Shards *shard.Map
	// Client is the transport used to reach quorum nodes.
	Client transport.Client
	// Alive filters nodes believed reachable (nil: all alive). When both
	// Alive and the failure detector are present, a node must pass both to
	// be selected.
	Alive quorum.AliveFunc
	// Health is the client-side failure detector fed by every RPC outcome.
	// Nil installs a default detector; pass a preconfigured detector to tune
	// suspicion thresholds or share one across runtimes. A caller that wants
	// selection left to Alive alone passes one that never suspects
	// (health.Config{SuspectAfter: math.MaxInt}). Note the runtime points
	// the detector's counter sink at its own Metrics, so sharing a detector
	// mirrors events into the last runtime created with it.
	Health *health.Detector
	// NoRepair disables asynchronous read-repair of quorum members that
	// report versions behind the quorum maximum.
	NoRepair bool
	// ClientSeed differentiates quorum selection across client nodes so
	// load spreads over tree levels and level members.
	ClientSeed int

	// MaxAttempts bounds top-level re-executions (0: 10000).
	MaxAttempts int
	// MaxSubAttempts bounds partial rollbacks of one sub-transaction before
	// escalating to a parent abort (0: 1000).
	MaxSubAttempts int
	// QuorumAttempts bounds re-selection of a quorum when members are
	// unreachable (0: 4).
	QuorumAttempts int

	// BackoffBase/BackoffMax shape the randomized exponential backoff
	// applied after aborts and busy objects (0: 100µs / 5ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RequestTimeout bounds one RPC (0: 5s).
	RequestTimeout time.Duration
	// DecideTimeout bounds delivery of a 2PC decision after a yes-vote
	// quorum (0: 10s). Decision delivery runs on a context detached from
	// the caller's so cancelling the transaction context cannot strand
	// participants in-doubt; within this budget un-acked participants are
	// retried with capped backoff.
	DecideTimeout time.Duration

	// TxDeadline bounds one top-level transaction end to end (0: none, the
	// caller's context governs). The deadline is installed on the context
	// and propagated as an absolute timestamp on every wire request the
	// transaction issues, so servers can reject already-expired work before
	// touching locks or the WAL. Decision delivery, a coordinator's or a
	// forwarded one, is exempt on both sides: a decided transaction's
	// outcome must reach participants no matter how stale the delivery is.
	TxDeadline time.Duration
	// RetryBudget caps retries per transaction attempt, shared across both
	// retry classes — quorum failover and overload backpressure waits (0:
	// 1000; negative: unlimited). Exhausting the budget fails the
	// transaction with ErrRetriesExhausted instead of letting pathological
	// clusters absorb unbounded retry work.
	RetryBudget int
	// HedgeAfter enables hedged quorum reads: when a one-group read round's
	// quorum has not fully answered after this delay, the read also goes to
	// one spare of the quorum's tree level, and len(quorum) answers of the
	// two complete the round (the root's level has no spare). >0 is a fixed
	// delay, 0 disables hedging, and negative derives the delay from the p99
	// of the Read stage (50ms before it has samples).
	HedgeAfter time.Duration

	// StatsEveryNReads, StatsWanted and StatsSink once piggybacked a
	// contention-stats query on every Nth transaction read.
	//
	// Deprecated: ignored; contention levels come from the Hub's query at
	// each refresh.
	StatsEveryNReads int
	// Deprecated: ignored; contention levels come from the Hub's query at
	// each refresh.
	StatsWanted func() []store.ObjectID
	// Deprecated: ignored; contention levels come from the Hub's query at
	// each refresh.
	StatsSink func(map[store.ObjectID]float64)

	// Seed makes backoff jitter reproducible (0: from the clock).
	Seed int64

	// ForensicsRing sizes the abort-forensics event rings (0: the
	// forensics.DefaultRingSize). Forensics is always on unless NoForensics
	// is set: the conflict-free hot path records nothing, so the recorder
	// only costs memory for the rings plus one event allocation per abort.
	ForensicsRing int
	// NoForensics disables the abort-forensics recorder entirely (A/B
	// overhead experiments; production runs leave it on).
	NoForensics bool

	// Tracer, when non-nil, records the spans of sampled transactions; nil
	// disables tracing at zero cost.
	Tracer *trace.Tracer
	// TraceSample controls which top-level transactions get a distributed
	// trace (span context on every wire request, client + server spans).
	// 0 or 1 traces every transaction, N>1 traces one in N, negative traces
	// none. Ignored without a Tracer.
	TraceSample int
}

func (c *Config) fillDefaults() {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 10000
	}
	if c.MaxSubAttempts == 0 {
		c.MaxSubAttempts = 1000
	}
	if c.QuorumAttempts == 0 {
		c.QuorumAttempts = 4
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 100 * time.Microsecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 5 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DecideTimeout == 0 {
		c.DecideTimeout = DefaultDecideTimeout
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 1000
	}
}

// DefaultDecideTimeout is the zero-value decision-delivery budget
// (Config.DecideTimeout).
const DefaultDecideTimeout = 10 * time.Second

// ClampDecideTimeout returns a decision-delivery budget that respects the
// cooperative-termination safety invariant DecideTimeout < ttlAbortAfter
// (the participants' last-resort in-doubt abort deadline): the TTL abort's
// proof — a complete all-in-doubt peer round past the deadline — only shows
// no commit WILL be delivered if every coordinator that could still be
// retrying has given up by then. Deployment layers that know both values
// (cluster constructors, the harness) call this instead of trusting the
// operator to keep the flags consistent. A zero decide resolves to
// DefaultDecideTimeout; a violating value is clamped to half the TTL
// deadline. ttlAbortAfter <= 0 means "server default" and is resolved by
// the caller (server.DefaultTTLAbortAfter).
func ClampDecideTimeout(decide, ttlAbortAfter time.Duration) time.Duration {
	if decide <= 0 {
		decide = DefaultDecideTimeout
	}
	if ttlAbortAfter > 0 && decide >= ttlAbortAfter {
		if half := ttlAbortAfter / 2; half > 0 {
			return half
		}
		return time.Nanosecond
	}
	return decide
}

// Runtime is one client node's DTM engine. It is safe for concurrent use;
// a client node typically runs many transaction goroutines over one Runtime.
type Runtime struct {
	cfg     Config
	pol     backoff.Policy
	metrics Metrics
	stages  StageLatencies
	health  *health.Detector
	// site names this client in distributed-trace spans.
	site string

	txSeq uint64
	seqMu sync.Mutex

	rngMu sync.Mutex
	rng   *rand.Rand

	// repairing dedupes in-flight read-repair pushes per object so a burst
	// of reads observing the same stale member sends one push, not many.
	repairMu  sync.Mutex
	repairing map[store.ObjectID]bool

	// order decides whether a prepare round asks the whole write quorum at
	// once or its root first (prepareorder.go).
	order prepareOrder

	// shardStats holds per-shard commit/abort attribution counters (nil
	// when unsharded); see ShardSnapshot.
	shardStats []shardCounters

	// forensics records structured abort/recompose events (nil when
	// Config.NoForensics disables it; every use is nil-safe).
	forensics *forensics.Recorder
}

// New creates a Runtime. It panics if Client is missing, or if neither Tree
// nor Shards describes the cluster's quorum layout.
func New(cfg Config) *Runtime {
	if cfg.Client == nil || (cfg.Tree == nil && cfg.Shards == nil) {
		panic("dtm: Config.Client and one of Config.Tree/Config.Shards are required")
	}
	cfg.fillDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Runtime{
		cfg:       cfg,
		pol:       backoff.Policy{Base: cfg.BackoffBase, Max: cfg.BackoffMax},
		site:      fmt.Sprintf("client-%d", cfg.ClientSeed),
		rng:       rand.New(rand.NewSource(seed)),
		repairing: make(map[store.ObjectID]bool),
	}
	if cfg.Shards != nil {
		rt.shardStats = make([]shardCounters, cfg.Shards.NumShards())
	}
	if !cfg.NoForensics {
		rt.forensics = forensics.New(cfg.ForensicsRing)
	}
	rt.health = cfg.Health
	if rt.health == nil {
		rt.health = health.New(health.Config{})
	}
	rt.health.SetCounters(&health.Counters{
		Suspicions:   &rt.metrics.Suspicions,
		Probes:       &rt.metrics.Probes,
		Readmissions: &rt.metrics.Readmissions,
	})
	return rt
}

// Metrics exposes the runtime's counters.
func (rt *Runtime) Metrics() *Metrics { return &rt.metrics }

// Stages exposes the runtime's client-side per-stage latency histograms.
func (rt *Runtime) Stages() *StageLatencies { return &rt.stages }

// Tracer exposes the runtime's tracer (nil when untraced).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.cfg.Tracer }

// sampleTrace decides whether the top-level transaction with this sequence
// number gets a distributed trace.
func (rt *Runtime) sampleTrace(seq uint64) bool {
	if rt.cfg.TraceSample < 0 || rt.cfg.Tracer == nil {
		return false
	}
	if rt.cfg.TraceSample <= 1 {
		return true
	}
	return seq%uint64(rt.cfg.TraceSample) == 0
}

// clientSpan is one client span site in flight, begun by beginSpan and closed
// by end on its caller's stack. It times the operation into its stage
// histogram, if it has one, whether or not the transaction is sampled; only a
// sampled one mints an ID, formats its name and detail and records the span,
// so an unsampled one allocates nothing.
type clientSpan struct {
	trace.Span
	tracer *trace.Tracer
	stage  *metrics.LatencyHistogram
}

// beginSpan starts a span named name (name-n when n >= 0) under parent, in
// trace traceID ("" when the transaction is not sampled); stage (nil: none)
// receives the operation's duration.
func (rt *Runtime) beginSpan(traceID string, parent uint64, stage *metrics.LatencyHistogram, name string, n int) clientSpan {
	s := clientSpan{tracer: rt.cfg.Tracer, stage: stage}
	if traceID != "" {
		s.Trace, s.ID, s.Parent, s.Site, s.Name = traceID, trace.NextSpanID(), parent, rt.site, name
		if n >= 0 {
			s.Name += "-" + strconv.Itoa(n)
		}
	}
	if traceID != "" || stage != nil {
		s.Start = time.Now()
	}
	return s
}

// sampled reports whether the span will be recorded.
func (s *clientSpan) sampled() bool { return s.Trace != "" }

// end closes the span. A sampled span's detail is ok on success (the detail
// it already holds when ok is empty) and the error on failure, after the
// detail it already holds.
func (s *clientSpan) end(err error, ok string) {
	if s.Start.IsZero() {
		return
	}
	now := time.Now()
	s.stage.Record(now.Sub(s.Start))
	if !s.sampled() {
		return
	}
	s.End = now
	switch {
	case err == nil:
		if ok != "" {
			s.Detail = ok
		}
	case s.Detail != "":
		s.Detail += ": " + err.Error()
	default:
		s.Detail = err.Error()
	}
	s.tracer.RecordSpan(s.Span)
}

// Health exposes the runtime's failure detector.
func (rt *Runtime) Health() *health.Detector { return rt.health }

// Forensics exposes the runtime's abort-forensics recorder (nil when
// disabled; all Recorder methods are nil-safe).
func (rt *Runtime) Forensics() *forensics.Recorder { return rt.forensics }

// ShardMap exposes the runtime's shard map (nil when unsharded).
func (rt *Runtime) ShardMap() *shard.Map { return rt.cfg.Shards }

// aliveView composes the static Alive oracle with the failure detector: a
// node must pass both to be eligible for quorum selection.
func (rt *Runtime) aliveView(id quorum.NodeID) bool {
	if rt.cfg.Alive != nil && !rt.cfg.Alive(id) {
		return false
	}
	return rt.health.Alive(id)
}

// quorumFn is the shape of quorum.Tree's ReadQuorumExcluding and
// WriteQuorumExcluding.
type quorumFn func(seed int, f quorum.AliveFunc, excl quorum.ExcludeSet) ([]quorum.NodeID, error)

// selectQuorum picks a quorum under the composed alive view minus the
// operation's exclude set, relaxing in two steps when that fails: first drop
// the exclude set, then the detector's suspicions. A quorum containing a
// suspect beats no quorum — availability never regresses below what the
// static oracle alone would allow.
func (rt *Runtime) selectQuorum(sel quorumFn, seed int, excl quorum.ExcludeSet) ([]quorum.NodeID, error) {
	q, err := sel(seed, rt.aliveView, excl)
	if err == nil {
		return q, nil
	}
	if len(excl) > 0 {
		if q, err2 := sel(seed, rt.aliveView, nil); err2 == nil {
			return q, nil
		}
	}
	if q, err2 := sel(seed, rt.cfg.Alive, nil); err2 == nil {
		return q, nil
	}
	return nil, err
}

// groupFor returns the quorum group owning id, or nil when unsharded.
func (rt *Runtime) groupFor(id store.ObjectID) *shard.Group {
	if rt.cfg.Shards == nil {
		return nil
	}
	return rt.cfg.Shards.GroupOf(id)
}

// treeOf returns the quorum tree of group g (the whole-cluster tree when g
// is nil).
func (rt *Runtime) treeOf(g *shard.Group) *quorum.Tree {
	if g != nil {
		return g.Tree()
	}
	return rt.cfg.Tree
}

// observe feeds one RPC outcome to the failure detector.
func (rt *Runtime) observe(node quorum.NodeID, err error) {
	if err == nil {
		rt.health.ReportSuccess(node)
	} else if health.CountsAsFailure(err) {
		rt.health.ReportFailure(node)
	}
}

func (rt *Runtime) nextTxSeq() uint64 {
	rt.seqMu.Lock()
	defer rt.seqMu.Unlock()
	rt.txSeq++
	return rt.txSeq
}

func (rt *Runtime) backoff(ctx context.Context, attempt int) error {
	rt.rngMu.Lock()
	d := rt.pol.JitteredDelay(attempt, rt.rng.Int63n)
	rt.rngMu.Unlock()
	return backoff.Sleep(ctx, d)
}

// Atomic runs fn as a top-level transaction, retrying on aborts until it
// commits, the context is cancelled, or the attempt budget is exhausted.
// fn must be idempotent: it may run many times.
//
// A sampled transaction (Config.TraceSample) records a "tx" root span with
// one "attempt-N" child per execution; every wire request the attempts issue
// carries the trace context so server spans nest under them. Unsampled
// transactions skip all span work — no IDs, no time stamps, no allocations.
func (rt *Runtime) Atomic(ctx context.Context, fn func(*Tx) error) error {
	seq := rt.nextTxSeq()
	var traceID string
	if rt.sampleTrace(seq) {
		traceID = fmt.Sprintf("c%d-t%d", rt.cfg.ClientSeed, seq)
	}
	sp := rt.beginSpan(traceID, 0, nil, "tx", -1)
	err := rt.runAttempts(ctx, fn, seq, traceID, sp.ID)
	sp.end(err, "committed")
	return err
}

// runAttempts is Atomic's retry loop. traceID/rootID carry the sampled
// trace context (empty/0 when unsampled).
func (rt *Runtime) runAttempts(ctx context.Context, fn func(*Tx) error, seq uint64, traceID string, rootID uint64) error {
	if rt.cfg.TxDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(rt.cfg.TxDeadline))
		defer cancel()
	}
	// The wire deadline is the context deadline as an absolute timestamp:
	// either TxDeadline just installed it, or the caller's context already
	// carried one worth propagating.
	var deadline int64
	if d, ok := ctx.Deadline(); ok {
		deadline = d.UnixNano()
	}
	for attempt := 0; attempt < rt.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := rt.beginSpan(traceID, rootID, nil, "attempt", attempt)
		// A fresh retry budget per attempt: the budget bounds the fan-in of
		// retries (failover, overload) within one execution, while
		// MaxAttempts separately bounds whole re-executions. It rides the
		// attempt's context, which every quorum operation and fan-out of
		// the attempt runs under (chargeRetry).
		tctx := context.WithValue(ctx, txBudgetKey{}, backoff.NewBudget(rt.cfg.RetryBudget))
		tx := &Tx{
			rt:          rt,
			ctx:         tctx,
			deadline:    deadline,
			id:          fmt.Sprintf("c%d-t%d-a%d", rt.cfg.ClientSeed, seq, attempt),
			seed:        rt.cfg.ClientSeed + int(seq),
			incarnation: attempt,
			traceID:     traceID,
			span:        sp.ID,
			reads:       make(map[store.ObjectID]readEntry),
			writes:      make(map[store.ObjectID]writeEntry),
		}
		err := fn(tx)
		if err == nil {
			err = rt.commit(tctx, tx)
		}
		sp.end(err, "committed")
		if err == nil {
			rt.metrics.Commits.Add(1)
			rt.noteShards(tx.readOrder, shardCommit)
			return nil
		}
		ae, ok := AsAbort(err)
		if !ok {
			// Non-abort exits (spent retry budgets, expired deadlines,
			// refused backpressure) still attribute forensically when the
			// error names a cause — these are the aborts a raw counter
			// diff cannot explain.
			if cause := causeOfErr(err); cause != forensics.CauseUnknown {
				rt.recordAbort(tx, &AbortError{Level: AbortParent, Reason: err.Error(), Cause: cause}, false, attempt)
			}
			return err
		}
		rt.metrics.ParentAborts.Add(1)
		rt.noteShards(tx.readOrder, shardParentAbort)
		rt.recordAbort(tx, ae, false, attempt)
		if ae.Busy {
			rt.metrics.BusyBackoffs.Add(1)
		}
		if err := rt.backoff(ctx, attempt); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts", ErrRetriesExhausted, rt.cfg.MaxAttempts)
}

type callResult struct {
	node quorum.NodeID
	resp *wire.Response
	err  error
}

// leg is a run of consecutive fan-out targets that are sent the same request:
// the targets from the previous leg's end up to, not including, end.
type leg struct {
	req *wire.Request
	end int
}

// fanout issues req to every node in parallel and collects all results.
func (rt *Runtime) fanout(ctx context.Context, nodes []quorum.NodeID, req *wire.Request) []callResult {
	return rt.fanoutLegs(ctx, nodes, []leg{{req, len(nodes)}})
}

// txBudgetKey carries the transaction attempt's shared retry budget through
// the context, where chargeRetry finds it.
// decide()'s context.WithoutCancel preserves values, but Decision delivery is
// admission-exempt server-side, so the overload path never fires there.
type txBudgetKey struct{}

// chargeRetry takes one retry — a quorum failover or an overload wait — from
// the budget of the transaction attempt ctx belongs to. Once that budget is
// spent it counts BudgetExhausted and returns the error that fails the
// transaction, naming the operation that wanted the retry. Outside a
// transaction ctx carries no budget, which is unlimited.
func (rt *Runtime) chargeRetry(ctx context.Context, op string) error {
	if b, _ := ctx.Value(txBudgetKey{}).(*backoff.Budget); b.Take() {
		return nil
	}
	rt.metrics.BudgetExhausted.Add(1)
	return fmt.Errorf("%w: retry budget spent during %s", ErrRetriesExhausted, op)
}

// fanoutLegs issues each leg's request to that leg's nodes, all in parallel
// (the legs cover nodes in order). Every call's outcome feeds the failure
// detector: a response is a success, timeouts and connection errors count
// against the node, and caller-side cancellations count as neither.
//
// The caller has nothing to do but wait, so the last call runs on its own
// goroutine — on its already grown stack — and only the others are spawned.
func (rt *Runtime) fanoutLegs(ctx context.Context, nodes []quorum.NodeID, legs []leg) []callResult {
	if len(nodes) == 0 {
		return nil
	}
	cctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	out := make([]callResult, len(nodes))
	last := len(nodes) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	l := 0
	for i, n := range nodes {
		for i >= legs[l].end {
			l++
		}
		if i == last {
			out[i] = rt.call1(cctx, n, legs[l].req)
			break
		}
		go func(i int, n quorum.NodeID, req *wire.Request) {
			defer wg.Done()
			out[i] = rt.call1(cctx, n, req)
		}(i, n, legs[l].req)
	}
	wg.Wait()
	return out
}

// call1 is one node's leg of a fan-out: the RPC itself plus the status
// conversions and the detector report.
func (rt *Runtime) call1(ctx context.Context, n quorum.NodeID, req *wire.Request) callResult {
	var resp *wire.Response
	var err error
	for try := 0; ; try++ {
		resp, err = rt.cfg.Client.Call(ctx, n, req)
		if err == nil && resp != nil && resp.Status == wire.StatusOverloaded {
			// Pure backpressure: the node answered, so it is alive — this
			// must never feed the failure detector or trigger failover
			// (shifting an overloaded node's work onto its peers turns one
			// hot node into a cascading brownout). Retry the SAME node after
			// a jittered backoff, within the transaction's retry budget.
			if rt.chargeRetry(ctx, "overload wait") == nil {
				rt.metrics.OverloadBackoffs.Add(1)
				if rt.backoff(ctx, try) == nil {
					continue
				}
			}
			// Budget or context exhausted mid-backpressure: surface a plain
			// error (health.CountsAsFailure is false for it) so callers
			// stop, without marking the node suspect.
			resp, err = nil, ErrNodeOverloaded
		} else if err == nil && resp != nil && resp.Status == wire.StatusUnavailable {
			// Recovery handshake: the node is up but replaying its
			// commit log. Surface it as a call error so the usual
			// exclude-and-failover path re-picks the quorum around it.
			resp, err = nil, ErrNodeUnavailable
		}
		break
	}
	if err != nil && req.Deadline != 0 && time.Now().UnixNano() >= req.Deadline {
		// The transaction's own budget expired while this call was in
		// flight: the manufactured timeout says nothing about the node's
		// health, so report neither success nor failure. An impatient
		// client must not read as a sick server.
	} else {
		rt.observe(n, err)
	}
	return callResult{node: n, resp: resp, err: err}
}

// hedgeDelay resolves Config.HedgeAfter: 0 disables hedging, >0 is the fixed
// delay, <0 derives it from the observed p99 of the Read stage so only the
// slowest ~1% of reads pay for an extra replica. Before enough samples exist
// the auto mode falls back to a conservative fixed delay.
func (rt *Runtime) hedgeDelay() time.Duration {
	d := rt.cfg.HedgeAfter
	if d >= 0 {
		return d
	}
	p := rt.stages.Read.Quantile(0.99)
	if p <= 0 {
		return 50 * time.Millisecond
	}
	return p
}

// fanoutHedged is fanout for the read round of one quorum group, hedged
// against a slow member: if read quorum q has not answered in full after
// hedgeAfter, the same read goes to one spare of q's tree level
// (quorum.Tree.Spare), and the round is complete once len(q) members of q and
// the spare have answered. Any len(q) nodes of that level are a read quorum,
// and max-version arithmetic in the caller merges whichever answered. A level
// with no spare, the root's above all, sends no hedge. The abandoned slow call
// is cancelled, which the detector ignores (caller-side cancellation), so a
// merely slow member is neither waited on nor suspected. A failed spare is
// left out of the results: it is no failure of q.
func (rt *Runtime) fanoutHedged(ctx context.Context, g *shard.Group, q []quorum.NodeID, req *wire.Request, excl quorum.ExcludeSet, hedgeAfter time.Duration) []callResult {
	cctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	ch := make(chan callResult, len(q)+1)
	for _, n := range q {
		go func() { ch <- rt.call1(cctx, n, req) }()
	}
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()

	results := make([]callResult, 0, len(q)+1)
	spare, spareOK := quorum.NodeID(-1), false
	outstanding, ok := len(q), 0
	for outstanding > 0 && ok < len(q) {
		select {
		case r := <-ch:
			outstanding--
			switch {
			case r.err == nil:
				ok++
				spareOK = spareOK || r.node == spare
			case r.node == spare:
				continue
			}
			results = append(results, r)
		case <-timer.C:
			if s, found := rt.treeOf(g).Spare(q, rt.aliveView, excl); found {
				rt.metrics.HedgesFired.Add(1)
				spare = s
				outstanding++
				go func() { ch <- rt.call1(cctx, s, req) }()
			}
		}
	}
	if spareOK && outstanding > 0 {
		// The spare completed the round while a member of q was still out.
		rt.metrics.HedgeWins.Add(1)
	}
	return results
}

// FetchStats asks a read quorum for the contention level of the given
// objects and merges per object by maximum. It is the client's one source of
// contention levels (the acn Hub calls it once per refresh); the query is a
// read that names no object, only StatsFor. The merge matters: a single
// member's meter only counts the write quorums it belonged to, and a full read
// quorum intersects every write quorum, so every write was counted by some
// member asked (the argument that makes max-version quorum reads see the
// latest commit). The maximum is the largest of those counts, not their sum.
func (rt *Runtime) FetchStats(ctx context.Context, ids []store.ObjectID) (map[store.ObjectID]float64, error) {
	if len(ids) == 0 {
		return map[store.ObjectID]float64{}, nil
	}
	// A group's meters only see the write quorums its members hosted, so each
	// shard's IDs are asked of that shard's own read quorum.
	parts := []shard.Part{{IDs: ids}}
	if rt.cfg.Shards != nil {
		parts = rt.cfg.Shards.Partition(ids)
	}
	levels := make(map[store.ObjectID]float64, len(ids))
	for _, p := range parts {
		if err := rt.fetchStatsIn(ctx, p, levels); err != nil {
			return nil, err
		}
	}
	return levels, nil
}

// fetchStatsIn is FetchStats for one quorum group's share of the IDs (the
// whole cluster when the part has no group), merged into levels.
func (rt *Runtime) fetchStatsIn(ctx context.Context, p shard.Part, levels map[store.ObjectID]float64) error {
	req := &wire.Request{Kind: wire.KindRead, Read: &wire.ReadRequest{StatsFor: p.IDs}}
	fo := rt.failover(ctx, rt.cfg.ClientSeed, wire.KindRead, "stats quorum")
	for fo.next() {
		if fo.attempt > 0 {
			rt.metrics.StatsQuorumRetries.Add(1)
		}
		q, err := fo.readQuorum(p.Group)
		if err != nil {
			return err
		}
		results := rt.fanout(ctx, q, req)
		if fo.failed(results) {
			continue
		}
		for _, r := range results {
			if r.resp.Read == nil {
				continue // a not-found or busy reply is an answer that may carry no payload
			}
			for id, lv := range r.resp.Read.Stats {
				if lv > levels[id] {
					levels[id] = lv
				}
			}
		}
		return nil
	}
	return fo.err()
}

// Result runs fn as a top-level transaction via rt.Atomic and returns the
// value computed by the committed execution. fn must be idempotent; only
// the final (committed) attempt's value is returned.
func Result[T any](ctx context.Context, rt *Runtime, fn func(*Tx) (T, error)) (T, error) {
	var out T
	err := rt.Atomic(ctx, func(tx *Tx) error {
		v, err := fn(tx)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}
