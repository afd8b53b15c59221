// Package forensics is the abort-attribution event subsystem: bounded rings
// of typed events that record WHY a transaction aborted (which cause class,
// which key, which holder it conflicted with), WHERE in its Block sequence
// the re-execution restarted, and WHAT the ACN controller decided on every
// recomposition pass — including the merges it refused and why. Events are
// plain data whose JSON tags are their one serialised form: the harness
// export, the Document a site answers wire.KindInspect with, and what
// qracn-inspect reads back. Producers live in the server's validation/lock
// paths, the dtm retry loop, and the acn controller.
//
// Recording is always-on but strictly pay-per-conflict: the conflict-free
// hot path never touches a Recorder, and every Recorder method is safe on a
// nil receiver (a disabled recorder costs one nil check on the abort path
// and nothing anywhere else).
package forensics

import (
	"sort"
	"strings"
	"sync"
	"time"

	"qracn/internal/trace"
)

// Cause classifies an abort by the mechanism that raised it.
type Cause uint8

const (
	// CauseUnknown marks events whose origin predates attribution (or a
	// decode of a newer peer's cause value).
	CauseUnknown Cause = iota
	// CauseReadValidation: incremental or commit-time validation found a
	// read-set entry invalidated by a concurrent commit.
	CauseReadValidation
	// CauseLockConflict: the object was protected (commit-locked) by
	// another transaction past the retry budget.
	CauseLockConflict
	// CauseCommitRound: a prepare was rejected without naming an invalid or
	// busy object (participant unreachable / terminated-tx refusal).
	CauseCommitRound
	// CauseDeadline: the transaction's deadline or retry budget expired.
	CauseDeadline
	// CauseOverload: a node shed the work with explicit backpressure.
	CauseOverload

	// NumCauses bounds iteration over the cause enum.
	NumCauses
)

func (c Cause) String() string {
	switch c {
	case CauseReadValidation:
		return "read-validation"
	case CauseLockConflict:
		return "lock-conflict"
	case CauseCommitRound:
		return "commit-round"
	case CauseDeadline:
		return "deadline"
	case CauseOverload:
		return "overload"
	default:
		return "unknown"
	}
}

// MarshalText and UnmarshalText carry a Cause as its name, so the JSON of an
// event reads "cause": "lock-conflict" and decodes back to the enum. A name
// this build does not know (a newer peer's) decodes as CauseUnknown.
func (c Cause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

func (c *Cause) UnmarshalText(text []byte) error {
	*c = CauseUnknown
	for k := CauseUnknown; k < NumCauses; k++ {
		if k.String() == string(text) {
			*c = k
			break
		}
	}
	return nil
}

// RefusalReason says why the algorithm module declined to merge two Blocks.
type RefusalReason uint8

const (
	// RefusalDependency: the pair is not dependency-compatible (no edge, or
	// the merged group would create a cycle).
	RefusalDependency RefusalReason = iota
	// RefusalSimilarity: the pair's contention levels differ beyond the
	// merge threshold.
	RefusalSimilarity

	numRefusalReasons
)

func (r RefusalReason) String() string {
	switch r {
	case RefusalSimilarity:
		return "similarity-threshold"
	default:
		return "dependency"
	}
}

// MarshalText and UnmarshalText carry a RefusalReason as its name, like
// Cause; an unknown name decodes as the enum's own fallback.
func (r RefusalReason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

func (r *RefusalReason) UnmarshalText(text []byte) error {
	*r = RefusalDependency
	for k := RefusalDependency; k < numRefusalReasons; k++ {
		if k.String() == string(text) {
			*r = k
			break
		}
	}
	return nil
}

// sharedMark suffixes a conflict witness whose holder held the key in shared
// mode. An unmarked witness is an exclusive holder, which is also what every
// witness from a peer that predates protection modes was.
const sharedMark = "/shared"

// Witness renders a conflict witness — the transaction whose protection
// refused a read or a prepare, and the mode it held — as the one string the
// Busy reply's ConflictTx and AbortEvent.ConflictingTxID carry. The witness
// is a label for reports: nothing routes on it or looks a transaction up by
// it, which is why the mode can ride in it instead of in a new wire field.
func Witness(holder string, shared bool) string {
	if shared && holder != "" {
		return holder + sharedMark
	}
	return holder
}

// SplitWitness is Witness's inverse: the holder's transaction ID and whether
// its hold was shared.
func SplitWitness(w string) (holder string, shared bool) {
	if h, ok := strings.CutSuffix(w, sharedMark); ok {
		return h, true
	}
	return w, false
}

// AbortEvent attributes one abort to a concrete (cause, key, position).
type AbortEvent struct {
	At time.Time `json:"at"`
	// TxID is the aborted incarnation's transaction ID.
	TxID string `json:"tx"`
	// Incarnation is the top-level attempt number the abort hit.
	Incarnation int `json:"incarnation"`
	// BlockIndex is the Block (closed-nested sub-transaction) the abort
	// struck: 0..BlockCount-1 for partial rollbacks, -1 when the abort was
	// raised at top level (commit round, flat transactions).
	BlockIndex int `json:"block"`
	// BlockCount is the composition length the transaction ran under
	// (0 when unknown — flat transactions outside an ACN executor).
	BlockCount int `json:"block_count"`
	// UnitAnchorID is the UnitBlock anchor of the failing Block (-1 unknown).
	UnitAnchorID int `json:"anchor"`
	// Key is the object the failure named (first invalid read, busy object).
	Key string `json:"key,omitempty"`
	// Shard is the key's owning shard (-1 unsharded/unknown).
	Shard int `json:"shard"`
	// Cause classifies the abort mechanism (its name in JSON).
	Cause Cause `json:"cause"`
	// ConflictingTxID is the conflict witness: the transaction holding the
	// conflicting protection and its mode (see Witness; piggybacked from the
	// server; empty when the server predates it or the conflict was
	// version-based).
	ConflictingTxID string `json:"conflict_tx,omitempty"`
	// Partial is true for a sub-transaction rollback (the parent survived).
	Partial bool `json:"partial"`
	// RetryDepth is the sub-attempt (partial) or retry round the abort hit.
	RetryDepth int `json:"retry_depth"`
}

// AnchorLevel is one sampled contention level in a RecomposeEvent.
type AnchorLevel struct {
	Anchor int     `json:"anchor"`
	Level  float64 `json:"level"`
}

// Refusal records one merge the algorithm module declined.
type Refusal struct {
	// First/Second are the anchor IDs heading the two groups considered.
	First  int `json:"first"`
	Second int `json:"second"`
	// Reason is why (its name in JSON).
	Reason RefusalReason `json:"reason"`
}

// RecomposeEvent audits one controller decision: what the algorithm module
// saw, what it changed, and what it refused to change.
type RecomposeEvent struct {
	At time.Time `json:"at"`
	// Trigger names the refresh source ("interval", "manual").
	Trigger string `json:"trigger"`
	// Before/After are the composition signatures around the decision.
	Before string `json:"before"`
	After  string `json:"after"`
	// Levels are the contention levels sampled for the decision.
	Levels []AnchorLevel `json:"levels,omitempty"`
	// Merges/Reorders count the structural changes applied.
	Merges   int `json:"merges"`
	Reorders int `json:"reorders"`
	// Refusals lists the merges considered and declined, with reasons.
	Refusals []Refusal `json:"refusals,omitempty"`
	// Applied is false when the decision was a no-op (identical composition
	// skipped without an executor swap).
	Applied bool `json:"applied"`
}

// HotKeyEvent is one row of the rotating per-key conflict tally.
type HotKeyEvent struct {
	At  time.Time `json:"at"`
	Key string    `json:"key"`
	// Conflicts counts aborts and busy refusals attributed to the key within
	// the tally's current rotation window.
	Conflicts uint64 `json:"conflicts"`
}

// DefaultRingSize is the per-ring event capacity when a deployment does not
// set one (-forensics-ring).
const DefaultRingSize = 4096

// hotKeysCap bounds the rotating tally: when the live generation holds this
// many distinct keys, inserting a new one rotates generations (the previous
// generation still contributes to TopKeys, so a hot key is never dropped the
// moment the table rotates).
const hotKeysCap = 4096

// Recorder owns one deployment site's forensic state: an abort ring, a
// recompose ring, and the rotating hot-key tally. All methods are safe for
// concurrent use and safe on a nil receiver (recording becomes a no-op).
type Recorder struct {
	aborts *trace.Ring[AbortEvent]
	recs   *trace.Ring[RecomposeEvent]

	hotMu sync.Mutex
	// The tallies sit behind pointers so that counting a known key is a
	// lookup, never a map assignment (which would make the map adopt the
	// caller's copy of the key — a view into a whole frame when it came off
	// the wire).
	hotCur  map[string]*uint64
	hotPrev map[string]*uint64
}

// New builds a Recorder with the given per-ring capacity (<=0: DefaultRingSize).
func New(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Recorder{
		aborts: trace.NewRing[AbortEvent](ringSize),
		recs:   trace.NewRing[RecomposeEvent](ringSize),
		hotCur: make(map[string]*uint64),
	}
}

// RecordAbort appends one abort event and tallies its key. A zero At is
// stamped here so producers pass plain data.
func (r *Recorder) RecordAbort(e AbortEvent) {
	if r == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	// The ring outlives the message these may be views into
	// (wire.DecodeEnvelope); only abort paths pay for the copies.
	e.TxID, e.Key, e.ConflictingTxID = strings.Clone(e.TxID), strings.Clone(e.Key), strings.Clone(e.ConflictingTxID)
	r.aborts.Record(e)
	if e.Key != "" {
		r.NoteConflict(e.Key)
	}
}

// RecordRecompose appends one controller decision.
func (r *Recorder) RecordRecompose(e RecomposeEvent) {
	if r == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	r.recs.Record(e)
}

// NoteConflict tallies one conflict observation against a key without
// recording a full event (servers call it for busy refusals the client may
// still retry through).
func (r *Recorder) NoteConflict(key string) {
	if r == nil {
		return
	}
	r.hotMu.Lock()
	if n := r.hotCur[key]; n != nil {
		*n++
	} else {
		if len(r.hotCur) >= hotKeysCap {
			r.hotPrev = r.hotCur
			r.hotCur = make(map[string]*uint64)
		}
		one := uint64(1)
		r.hotCur[strings.Clone(key)] = &one
	}
	r.hotMu.Unlock()
}

// Aborts returns the buffered abort events, oldest first.
func (r *Recorder) Aborts() []AbortEvent {
	if r == nil {
		return nil
	}
	return r.aborts.Snapshot()
}

// Recomposes returns the buffered controller decisions, oldest first.
func (r *Recorder) Recomposes() []RecomposeEvent {
	if r == nil {
		return nil
	}
	return r.recs.Snapshot()
}

// TotalAborts counts every abort ever recorded, including events the ring
// has since overwritten.
func (r *Recorder) TotalAborts() uint64 {
	if r == nil {
		return 0
	}
	return r.aborts.Recorded()
}

// TotalRecomposes counts every decision ever recorded.
func (r *Recorder) TotalRecomposes() uint64 {
	if r == nil {
		return 0
	}
	return r.recs.Recorded()
}

// HotKeys returns the top-k keys by conflict tally across both tally
// generations (k <= 0: all).
func (r *Recorder) HotKeys(k int) []HotKeyEvent {
	if r == nil {
		return nil
	}
	r.hotMu.Lock()
	merged := make(map[string]uint64, len(r.hotCur)+len(r.hotPrev))
	for key, n := range r.hotPrev {
		merged[key] += *n
	}
	for key, n := range r.hotCur {
		merged[key] += *n
	}
	r.hotMu.Unlock()
	now := time.Now()
	out := make([]HotKeyEvent, 0, len(merged))
	for key, n := range merged {
		out = append(out, HotKeyEvent{At: now, Key: key, Conflicts: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conflicts != out[j].Conflicts {
			return out[i].Conflicts > out[j].Conflicts
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Snapshot is a point-in-time copy of a Recorder's state, the unit the
// harness aggregates across client runtimes and exports as the bench JSON
// "forensics" block.
type Snapshot struct {
	Aborts          []AbortEvent     `json:"events,omitempty"`
	Recomposes      []RecomposeEvent `json:"recomposes,omitempty"`
	HotKeys         []HotKeyEvent    `json:"hot_keys,omitempty"`
	TotalAborts     uint64           `json:"total_aborts"`
	TotalRecomposes uint64           `json:"total_recomposes"`
}

// Snapshot copies the recorder's rings and top-k hot keys.
func (r *Recorder) Snapshot(topK int) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{
		Aborts:          r.Aborts(),
		Recomposes:      r.Recomposes(),
		HotKeys:         r.HotKeys(topK),
		TotalAborts:     r.TotalAborts(),
		TotalRecomposes: r.TotalRecomposes(),
	}
}

// Merge folds another snapshot into s: events append, hot-key tallies merge
// by key and re-rank.
func (s *Snapshot) Merge(o Snapshot) {
	s.Aborts = append(s.Aborts, o.Aborts...)
	s.Recomposes = append(s.Recomposes, o.Recomposes...)
	s.TotalAborts += o.TotalAborts
	s.TotalRecomposes += o.TotalRecomposes
	if len(o.HotKeys) == 0 {
		return
	}
	merged := make(map[string]uint64, len(s.HotKeys)+len(o.HotKeys))
	at := map[string]time.Time{}
	for _, h := range s.HotKeys {
		merged[h.Key] += h.Conflicts
		at[h.Key] = h.At
	}
	for _, h := range o.HotKeys {
		merged[h.Key] += h.Conflicts
		if at[h.Key].IsZero() {
			at[h.Key] = h.At
		}
	}
	out := make([]HotKeyEvent, 0, len(merged))
	for key, n := range merged {
		out = append(out, HotKeyEvent{At: at[key], Key: key, Conflicts: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conflicts != out[j].Conflicts {
			return out[i].Conflicts > out[j].Conflicts
		}
		return out[i].Key < out[j].Key
	})
	s.HotKeys = out
}

// Document is the debug plane's one payload: what a site answers a
// wire.KindInspect with (as JSON, by the event types' own tags), and what the
// answers of several sites merge into. A new kind of evidence a debugger
// needs from every site is one more field here, not a wire kind.
type Document struct {
	// Spans are the site's recorded trace spans, oldest first — of one trace
	// when the request named one. Empty on an untraced site.
	Spans []trace.Span `json:"spans,omitempty"`
	// Forensics is the site's forensic snapshot (zero on a site that records
	// none).
	Forensics Snapshot `json:"forensics"`
}

// Merge folds another site's document into d.
func (d *Document) Merge(o Document) {
	d.Spans = append(d.Spans, o.Spans...)
	d.Forensics.Merge(o.Forensics)
}
