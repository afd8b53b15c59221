// Package qracn is a Go implementation of QR-ACN — the Automated Closed
// Nesting framework of Dhoke, Palmieri, and Ravindran, "An Automated
// Framework for Decomposing Memory Transactions to Exploit Partial
// Rollback" — together with the full substrate it runs on: the QR-DTM
// quorum-based replicated distributed transactional memory and its QR-CN
// closed-nesting extension.
//
// The package is a facade: it re-exports the programming surface of the
// internal packages so applications can
//
//   - express flat transactions in the transaction IR (NewProgram),
//   - run the static module over them (Analyze),
//   - deploy an in-process cluster (NewCluster) or connect to a TCP one,
//   - execute transactions flat (QR-DTM), with a manual decomposition
//     (QR-CN), or under automatic adaptive decomposition (QR-ACN) via
//     NewExecutor + NewHub, and
//   - reproduce the paper's evaluation through the harness (RunExperiment,
//     Figures).
//
// See examples/ for runnable entry points.
package qracn

import (
	"context"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/harness"
	"qracn/internal/metrics"
	"qracn/internal/model"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/txir"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
	"qracn/internal/workload/vacation"
)

// Object and value types.
type (
	// ObjectID names a shared object.
	ObjectID = store.ObjectID
	// Value is the interface shared-object values implement.
	Value = store.Value
	// Int64, Float64, Str, Bytes, and Tuple are ready-made value types.
	Int64   = store.Int64
	Float64 = store.Float64
	Str     = store.String
	Bytes   = store.Bytes
	Tuple   = store.Tuple
)

// ID builds an ObjectID from a class label and key components.
func ID(class string, keys ...any) ObjectID { return store.ID(class, keys...) }

// AsInt64 extracts an Int64 value (0 for nil).
func AsInt64(v Value) int64 { return store.AsInt64(v) }

// RegisterValue makes a custom Value type known to the TCP codec.
func RegisterValue(v Value) { wire.RegisterValue(v) }

// Transaction IR.
type (
	// Program is a flat transaction expressed in the IR.
	Program = txir.Program
	// Env carries one invocation's parameters and private variables.
	Env = txir.Env
	// Var names a private variable. Each is assigned once: Analyze rejects
	// a program in which two statements define the same Var.
	Var = txir.Var
	// Stmt is one statement of a Program.
	Stmt = txir.Stmt
)

// NewProgram starts building a transaction program.
func NewProgram(name string) *Program { return txir.NewProgram(name) }

// NewEnv creates an environment over invocation parameters.
func NewEnv(params map[string]any) *Env { return txir.NewEnv(params) }

// Static analysis (the paper's static module).
type (
	// Analysis is the dependency model the static module produces.
	Analysis = unitgraph.Analysis
)

// Analyze runs the static module: UnitGraph construction, UnitBlock
// extraction, local-operation attachment, and the dependency model.
func Analyze(p *Program) (*Analysis, error) { return unitgraph.Analyze(p) }

// DTM runtime.
type (
	// Runtime is a client node's DTM engine.
	Runtime = dtm.Runtime
	// Tx is a transaction context. One level of closed nesting (Tx.Sub)
	// and checkpoints (Tx.Checkpoint) are savepoints on it: rolling back to
	// one forgets the reads and undoes the writes made since.
	Tx = dtm.Tx
	// RuntimeConfig tunes a Runtime.
	RuntimeConfig = dtm.Config
	// AbortError reports a (partial) rollback.
	AbortError = dtm.AbortError
)

// Cluster deployment.
type (
	// Cluster is an in-process deployment of quorum nodes.
	Cluster = cluster.Cluster
	// ClusterConfig sizes a Cluster; node tunables travel in its Node field.
	ClusterConfig = cluster.Config
	// NodeConfig is the one declaration of quorum-node tunables
	// (ClusterConfig.Node, ExperimentOptions.Node).
	NodeConfig = server.Config
	// NetworkConfig tunes the simulated interconnect.
	NetworkConfig = transport.ChannelConfig
	// NodeID identifies a quorum node.
	NodeID = quorum.NodeID
)

// NewCluster deploys an in-process cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// ACN: compositions, executor engine, algorithm module (the Hub is below).
type (
	// Composition is an executable Block sequence.
	Composition = acn.Composition
	// Executor runs a program through its current Block sequence.
	Executor = acn.Executor
	// AlgoConfig tunes the three-step recomposition algorithm.
	AlgoConfig = acn.AlgoConfig
	// ContentionModel converts contention levels to abort probabilities.
	ContentionModel = model.ContentionModel
)

// Flat returns the flat-nesting (QR-DTM) composition.
func Flat(an *Analysis) *Composition { return acn.Flat(an) }

// Static returns ACN's initial fine-grained composition.
func Static(an *Analysis) *Composition { return acn.Static(an) }

// Manual builds a programmer-specified composition (the QR-CN baseline).
func Manual(an *Analysis, groups [][]int) (*Composition, error) { return acn.Manual(an, groups) }

// NewExecutor creates an executor engine over a runtime.
func NewExecutor(rt *Runtime, an *Analysis, initial *Composition) *Executor {
	return acn.NewExecutor(rt, an, initial)
}

// ValidateComposition checks a composition against a dependency model.
func ValidateComposition(an *Analysis, c *Composition) error {
	return acn.ValidateComposition(an, c)
}

// LoadComposition restores a persisted composition, re-validating it
// against the current analysis (warm start after a client restart).
func LoadComposition(an *Analysis, data []byte) (*Composition, error) {
	return acn.LoadComposition(an, data)
}

// Tracer records the spans of sampled transactions (see
// RuntimeConfig.Tracer and TraceSample).
type Tracer = trace.Tracer

// NewTracer creates a tracer holding the last capacity spans.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// Distributed tracing: spans, cross-node assembly, and export.
type (
	// Span is one timed operation of a traced transaction, on the client
	// (tx, attempt, block, try, read, prefetch, commit) or on a server
	// (serve-*, wal-fsync).
	Span = trace.Span
	// SpanNode is a span with its children, as assembled by AssembleTrace.
	SpanNode = trace.SpanNode
	// LatencySummary is a count/mean/p50/p95/p99 digest of a stage
	// histogram.
	LatencySummary = metrics.Summary
)

// AssembleTrace reassembles one trace's spans — typically the client's own
// plus those fetched from the servers — into its span tree(s).
func AssembleTrace(spans []Span, traceID string) []*SpanNode {
	return trace.AssembleTrace(spans, traceID)
}

// TraceIDs lists the distinct trace IDs present in spans, sorted.
func TraceIDs(spans []Span) []string { return trace.TraceIDs(spans) }

// ChromeTrace renders spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto). It fails on malformed spans.
func ChromeTrace(spans []Span) ([]byte, error) { return trace.ChromeTrace(spans) }

// TraceTimeline renders spans as an indented plain-text timeline.
func TraceTimeline(spans []Span) string { return trace.Timeline(spans) }

// Workloads.
type (
	// Workload is a benchmark: data, profiles, generator.
	Workload = workload.Workload
	// Profile is one transaction type of a benchmark.
	Profile = workload.Profile
	// BankConfig, TPCCConfig, and VacationConfig size the benchmarks.
	BankConfig     = bank.Config
	TPCCConfig     = tpcc.Config
	VacationConfig = vacation.Config
)

// NewBank builds the Bank benchmark.
func NewBank(cfg BankConfig) Workload { return bank.New(cfg) }

// NewTPCC builds the scaled-down TPC-C benchmark.
func NewTPCC(cfg TPCCConfig) Workload { return tpcc.New(cfg) }

// NewVacation builds the STAMP Vacation benchmark.
func NewVacation(cfg VacationConfig) Workload { return vacation.New(cfg) }

// Experiment harness.
type (
	// ExperimentOptions configures one experiment.
	ExperimentOptions = harness.Options
	// ExperimentResult holds the measured series per system.
	ExperimentResult = harness.Result
	// SystemMode selects QR-DTM, QR-CN, or QR-ACN.
	SystemMode = harness.Mode
	// FigureSpec describes one panel of the paper's Figure 4; its Options
	// method builds the panel's experiment on a base ExperimentOptions (the
	// zero value is the scale the benchmark suite uses).
	FigureSpec = harness.Figure
	// FaultEvent schedules a node failure or recovery at an interval
	// boundary (see ExperimentOptions.Faults).
	FaultEvent = harness.FaultEvent
)

// The systems of the evaluation. QRDTM, QRCN, and QRACN are the paper's
// three; QRCP is the checkpointing comparison system this library adds.
const (
	QRDTM = harness.ModeQRDTM
	QRCN  = harness.ModeQRCN
	QRACN = harness.ModeQRACN
	QRCP  = harness.ModeQRCP
)

// AllModes lists the paper's systems in presentation order;
// AllModesWithCheckpoint adds QR-CP.
var (
	AllModes               = harness.AllModes
	AllModesWithCheckpoint = harness.AllModesWithCheckpoint
)

// RunExperiment measures the given systems under identical workload
// schedules.
func RunExperiment(ctx context.Context, opts ExperimentOptions, modes []SystemMode) (*ExperimentResult, error) {
	return harness.Run(ctx, opts, modes)
}

// Figures returns every panel of the paper's evaluation.
func Figures() []FigureSpec { return harness.Figures() }

// FigureByID looks a panel up by label ("4a".."4f").
func FigureByID(id string) (FigureSpec, bool) { return harness.FigureByID(id) }

// Result runs fn as a transaction and returns the committed attempt's
// value (a typed convenience over Runtime.Atomic).
func Result[T any](ctx context.Context, rt *Runtime, fn func(*Tx) (T, error)) (T, error) {
	return dtm.Result(ctx, rt, fn)
}

// Hub coordinates ACN across all of one client's transaction profiles with
// a shared contention table and a single stats query per refresh.
type Hub = acn.Hub

// HubConfig tunes a Hub.
type HubConfig = acn.HubConfig

// NewHub creates a hub over a runtime; register each profile's executor
// with Hub.Register and call Hub.RefreshOnce once per measurement interval
// (the paper: every 10 s).
func NewHub(rt *Runtime, cfg HubConfig) *Hub { return acn.NewHub(rt, cfg) }
