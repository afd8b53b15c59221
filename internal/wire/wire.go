// Package wire defines the request/response messages exchanged between DTM
// clients and quorum nodes, and the one codec that carries them over a byte
// stream: a fixed-layout binary encoding in CRC-checked, length-prefixed
// frames with optional flate compression (binary.go). The paper piggybacks
// contention meta-data on existing messages and compresses messages to bound
// that cost. Here the contention query is a read of its own: a ReadRequest
// that names no Object and asks StatsFor only, sent to each quorum group once
// per refresh. A server answers StatsFor on an object read too.
package wire

import (
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// Status is the server-side outcome of a request.
type Status int

// Status values.
const (
	StatusOK Status = iota
	// StatusBusy: an object involved in the request is protected by a
	// committing transaction; the client should back off and retry.
	StatusBusy
	// StatusNotFound: the requested object does not exist on the replica.
	StatusNotFound
	// StatusError: any other server-side failure, detail in Response.Detail.
	StatusError
	// StatusUnavailable: the node is up but not serving yet — it is
	// replaying its write-ahead log after a restart (the recovery handshake
	// guard). Clients treat it like an unreachable member and fail over;
	// unlike a refused dial it does not feed the failure detector's
	// suspicion score, because answering at all proves the process is live.
	StatusUnavailable
	// StatusOverloaded: the node's admission gate shed the request (its
	// in-flight limit and queue are full, the queued request aged out, or
	// the request's deadline had already expired on arrival — see
	// Response.Detail). Pure backpressure: the node is healthy, so clients
	// must retry the SAME node after a jittered backoff within their retry
	// budget — never fail over (that would migrate load onto the remaining
	// members and cascade) and never feed the failure detector (answering
	// proves liveness).
	StatusOverloaded
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusNotFound:
		return "not-found"
	case StatusUnavailable:
		return "unavailable"
	case StatusOverloaded:
		return "overloaded"
	default:
		return "error"
	}
}

// Kind discriminates request payloads.
type Kind int

// Request kinds.
const (
	KindRead Kind = iota
	KindPrepare
	// KindDecision delivers a 2PC outcome: from the coordinator, or forwarded
	// by a participant that resolved the transaction through the termination
	// protocol (DecisionRequest.Forwarded).
	KindDecision
	// KindShardMap fetches the cluster's shard map: the versioned assignment
	// of hash partitions to quorum groups. Any node serves it; clients cache
	// the map by version and send HaveVersion so an up-to-date cache costs a
	// header-only reply.
	KindShardMap
	KindPing
	// 5 is retired (the deleted anti-entropy pull's): it stays unused so no
	// later kind's byte moves, and the codec rejects it.
	_
	// KindBatch carries N independent sub-requests in one frame.
	//
	// Deprecated: no node serves it and no client sends it; a read-ahead is
	// one multi-object read (ReadRequest.More). The kind and its codec stay
	// only while benchmark/ still names them.
	KindBatch
	// KindRepair pushes a fresh value+version to a replica that reported a
	// stale version during a quorum read (read-repair). The server applies
	// it only if the pushed version is newer than its own and the object is
	// not protected by an in-flight commit.
	KindRepair
	// KindInspect is the one door of the debug plane: it fetches the node's
	// debug document (its recorded trace spans and its abort-forensics
	// snapshot, see InspectResponse) for a client or qracn-inspect. Never
	// issued on the transaction hot path; serving it is read-only and
	// admission-gated — a debug fetch must never starve transaction traffic.
	KindInspect
	// KindTxStatus asks a quorum peer what it knows about the transaction
	// named by TxID; it carries no payload. A participant holding an in-doubt
	// prepare past its resolve deadline queries the other members recorded in
	// its prepare record (cooperative termination). A peer that saw the
	// decision answers authoritatively; a peer that never voted yes implies
	// the unanimous-yes quorum was never reached, so abort is safe.
	KindTxStatus

	// numKinds counts the Kind values. It MUST stay last: the wire
	// round-trip test iterates [0, numKinds) and fails compilation-adjacent
	// (with a missing fixture) when a new Kind is added without codec
	// coverage, so a new message type cannot ship without an encoding.
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindPrepare:
		return "prepare"
	case KindDecision:
		return "decision"
	case KindShardMap:
		return "shard-map"
	case KindBatch:
		return "batch"
	case KindRepair:
		return "repair"
	case KindInspect:
		return "inspect"
	case KindTxStatus:
		return "tx-status"
	case KindPing:
		return "ping"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Request is a client-to-server message. Exactly one payload pointer,
// matching Kind, is non-nil (except KindPing and KindTxStatus, which carry
// none).
type Request struct {
	Kind Kind
	TxID string
	// TraceID and SpanID are the distributed-tracing span context: the trace
	// the issuing transaction belongs to and the client span that issued this
	// request. Both are zero on untraced requests — an empty string and a
	// zero varint, one byte each on the wire — and a server that receives
	// them records its serve span under SpanID.
	TraceID string
	SpanID  uint64
	// Deadline is the absolute expiry of the issuing transaction's budget,
	// in Unix nanoseconds (0: none). Servers reject work whose deadline has
	// already passed BEFORE touching locks or the WAL — executing it would
	// be wasted: the caller has given up. Deliberately absolute rather than
	// a remaining-time delta: a delta survives clock skew but silently
	// inflates on every store-and-forward hop; an absolute deadline is
	// exact under the bounded skew a quorum deployment already assumes for
	// lease TTLs, and only ever errs by that skew once, not per hop.
	// Coordinators never stamp it on KindDecision — a decided transaction
	// must reach participants regardless of who is still waiting — and
	// servers never deadline-check that kind.
	Deadline int64
	Read     *ReadRequest
	Prepare  *PrepareRequest
	Decision *DecisionRequest
	Batch    *BatchRequest
	Repair   *RepairRequest
	Inspect  *InspectRequest
	ShardMap *ShardMapRequest
}

// BatchRequest bundles independent sub-requests into one frame. Sub-requests
// must not themselves be batches (no nesting).
//
// Deprecated: see KindBatch.
type BatchRequest struct {
	Subs []*Request
}

// BatchResponse carries one sub-response per sub-request, in order.
//
// Deprecated: see KindBatch.
type BatchResponse struct {
	Subs []*Response
}

// ReadRequest fetches one object, or several, and incrementally validates the
// caller's read-set once for all of them. A read that names no Object is the
// contention-stats query: it is answered StatusOK with the levels of StatsFor
// and no value.
type ReadRequest struct {
	Object store.ObjectID
	// More names further objects to read after Object, answered one result
	// each, in order, in ReadResponse.More: the read-ahead asks a quorum
	// member for a dozen rows in one request. Empty on a one-object read,
	// whose frame it leaves as it was before the field existed.
	More     []store.ObjectID
	Validate []store.ReadDesc
	// StatsFor asks for these objects' contention levels (writes in the
	// node's last stats window), answered in ReadResponse.Stats.
	StatsFor []store.ObjectID
}

// PrepareRequest is phase one of two-phase commit: validate the read-set and
// protect the write-set on this replica.
type PrepareRequest struct {
	Reads  []store.ReadDesc
	Writes []store.WriteDesc
	// Quorum lists every member of the write quorum the coordinator selected
	// for this attempt, in tree order. Participants persist it in their WAL
	// prepare record so that, if the coordinator dies in-doubt, they know
	// exactly which peers to interrogate during cooperative termination.
	Quorum []quorum.NodeID
}

// DecisionRequest is phase two of two-phase commit.
type DecisionRequest struct {
	Commit bool
	// Forwarded marks an outcome a participant resolved through the
	// termination protocol and pushes to the peers it found still in doubt,
	// so they converge without waiting out their own deadlines; the
	// coordinator never sets it. It shares the byte that carries Commit, so
	// a coordinator's decision encodes as it did before the flag existed.
	Forwarded bool
	// Writes are applied when Commit is true by a node that holds no prepare
	// record of the transaction; one that does applies the writes it
	// promised in its own record.
	Writes []store.WriteDesc
	// Release lists every object the prepare protected (the transaction's
	// read-set); the decision clears those protections whether it commits
	// or aborts.
	Release []store.ObjectID
}

// TxState is a replica's knowledge of a transaction, reported through
// KindTxStatus during cooperative termination.
type TxState int

// TxState values.
const (
	// TxStateUnknown: the replica never voted yes for the transaction (it
	// never saw the prepare, or had already discarded an aborted one). A
	// single unknown answer from a write-quorum member proves the unanimous
	// yes-vote was never assembled, so abort is safe.
	TxStateUnknown TxState = iota
	// TxStateInDoubt: the replica voted yes and is itself still waiting for
	// the decision. Carries no information about the outcome.
	TxStateInDoubt
	// TxStateCommitted / TxStateAborted: the replica saw the decision (from
	// the coordinator, a peer, or its own WAL replay) and answers
	// authoritatively.
	TxStateCommitted
	TxStateAborted
)

func (s TxState) String() string {
	switch s {
	case TxStateInDoubt:
		return "in-doubt"
	case TxStateCommitted:
		return "committed"
	case TxStateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// TxStatusResponse reports the replica's knowledge of the transaction.
type TxStatusResponse struct {
	State TxState
}

// ShardMapRequest fetches the node's shard map. HaveVersion is the version
// the client already caches; a node holding that exact version answers with
// an empty ShardMapResponse (same Version, no Groups) so the common
// cache-refresh costs no membership bytes.
type ShardMapRequest struct {
	HaveVersion uint64
}

// ShardMapResponse carries the shard map: every group's node membership in
// shard order, plus the tree degree each group's quorum uses. Groups is nil
// when the client's cached version is already current.
type ShardMapResponse struct {
	Version uint64
	Degree  int
	Groups  [][]quorum.NodeID
}

// RepairRequest carries one object's fresh value+version to a stale
// replica: a push of a single object, issued asynchronously by clients whose
// quorum read showed the replica behind the quorum maximum. It is the one
// way a stale replica is healed; quorum intersection makes one harmless in
// the meantime.
type RepairRequest struct {
	Object  store.ObjectID
	Value   store.Value
	Version uint64
}

// InspectRequest fetches a node's debug document. TraceID limits the
// document's spans to one trace (empty: everything buffered); TopK bounds its
// hot-key table (0: server default).
type InspectRequest struct {
	TraceID string
	TopK    int
}

// InspectResponse carries the node's debug document. Doc is opaque to the
// codec: the JSON of a forensics.Document, marshalled by the event types'
// own tags — the shape the bench export, -spans-out and qracn-inspect -in
// already read. Debug payloads are fetched by hand a few times an hour, so
// they get the format that costs no code per field; transaction payloads
// cross the wire thousands of times a second and keep the fixed layout.
type InspectResponse struct {
	Doc []byte
}

// Response is a server-to-client message.
type Response struct {
	Status Status
	Detail string
	// ConflictTx names the transaction holding the protection that made a
	// read or prepare answer Busy — the conflict witness, piggybacked on the
	// reply under a presence bit exactly like Request.Deadline (empty keeps
	// the frame byte-identical to the pre-forensics layout, so old peers
	// interoperate). Clients thread it into the AbortEvent they record so an
	// abort is attributable to the concrete holder, not just the key.
	ConflictTx string
	Read       *ReadResponse
	Prepare    *PrepareResponse
	Batch      *BatchResponse
	Inspect    *InspectResponse
	TxStatus   *TxStatusResponse
	ShardMap   *ShardMapResponse
}

// ReadResponse carries the object, the incremental-validation outcome, and
// the contention levels StatsFor asked for. The first object's outcome is the
// Response's own Status and ConflictTx; each further object's is its entry
// of More.
type ReadResponse struct {
	Value   store.Value
	Version uint64
	// Invalid lists previously-read objects this replica knows a newer
	// version of; a non-empty list triggers a (partial) abort at the client.
	Invalid []store.ObjectID
	Stats   map[store.ObjectID]float64
	// More holds one result per ReadRequest.More entry, in the same order.
	More []ReadResult
}

// ReadResult is the outcome of reading one further object of a multi-object
// read: what Status, ConflictTx, Value and Version say of the first.
type ReadResult struct {
	Status     Status
	Version    uint64
	Value      store.Value
	ConflictTx string
}

// PrepareResponse is the participant's vote.
type PrepareResponse struct {
	Vote    bool
	Invalid []store.ObjectID
	Busy    []store.ObjectID
}

// Envelope frames a request or response with a sequence number so multiple
// in-flight calls can share one TCP connection.
type Envelope struct {
	Seq        uint64
	IsResponse bool
	// Cancel asks the server to cancel the in-flight request with this
	// sequence number (the client's context was cancelled). Carries no
	// payload; the server cancels the request's context and still writes a
	// response, which the client has already stopped waiting for.
	Cancel bool
	Req    *Request
	Resp   *Response
}
