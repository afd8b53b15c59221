package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ObjectID names a shared object. Workloads typically derive IDs from a
// class prefix and a key, e.g. "district/3/7".
type ObjectID string

// Clone returns a copy of id in memory of its own. An ID decoded off the wire
// is a view into its whole frame (wire.DecodeEnvelope): a table that keeps
// one long after the message is gone keeps a clone, or it keeps the frame.
func (id ObjectID) Clone() ObjectID { return ObjectID(strings.Clone(string(id))) }

// ID builds an ObjectID from a class label and key components: the class,
// then "/" and each key as %v prints it.
func ID(class string, keys ...any) ObjectID {
	var buf [64]byte
	b := append(buf[:0], class...)
	for _, k := range keys {
		b = AppendKey(append(b, '/'), k)
	}
	return ObjectID(b)
}

// IntID builds the ID that ID builds from the same int keys, in one
// allocation, the ID's own. ID's keys escape, because a key of any other type
// goes to fmt, so a caller of ID boxes every int key above 255 on the heap.
func IntID(class string, keys ...int) ObjectID {
	var buf [64]byte
	b := append(buf[:0], class...)
	for _, k := range keys {
		b = strconv.AppendInt(append(b, '/'), int64(k), 10)
	}
	return ObjectID(b)
}

// AppendKey appends one ID key component to b exactly as %v prints it.
// An int, an int64 or a string, the keys workloads use, takes strconv or a
// copy; anything else takes fmt.
func AppendKey(b []byte, k any) []byte {
	switch k := k.(type) {
	case int:
		return strconv.AppendInt(b, int64(k), 10)
	case int64:
		return strconv.AppendInt(b, k, 10)
	case string:
		return append(b, k...)
	default:
		return fmt.Appendf(b, "%v", k)
	}
}

// ReadDesc describes one entry of a transaction's read-set: the object and
// the version the transaction observed. Servers use it for incremental and
// commit-time validation.
type ReadDesc struct {
	ID      ObjectID
	Version uint64
}

// WriteDesc describes one buffered write shipped at commit time. NewVersion
// is the version the object will have after the commit applies; it is
// derived by the client from the version it observed (base+1), so version
// numbers stay globally consistent even though each replica applies commits
// independently.
type WriteDesc struct {
	ID         ObjectID
	Value      Value
	NewVersion uint64
	// Block is the index of the ACN Block (closed-nested sub-transaction)
	// that produced this write within its transaction: 0 for writes made at
	// top level, k for the k-th sub-transaction. It is dependency metadata
	// carried into the commit log so recovery can partition replay by the
	// sub-transaction structure; replicas ignore it when applying.
	Block int
}

// object is one live replica-local versioned object.
//
// A committing transaction holds a protection on every object of its
// read-set from its prepare to its decision, in one of two modes. An object
// it writes is held EXCLUSIVE (the paper's commit flag): one holder, and
// reads and every other protection are refused until the decision. An object
// it only read is held SHARED: any number of holders, reads and other shared
// holders pass (the value is not about to change), only an exclusive
// protection — a writer — is refused.
//
// The struct is kept within the 80-byte allocation class: a replica holds
// one per row, and seeding and snapshots scale with it. Lease starts are
// therefore offsets from the store's epoch, not time.Time values.
type object struct {
	value   Value
	version uint64
	// protected/protectedBy/protectedAt are the exclusive protection, its
	// holder and its lease start.
	protected   bool
	protectedBy string
	protectedAt time.Duration
	// shared lists the shared holders. It stays a small slice on the object
	// (a hot read-only row has one holder per in-flight commit), scanned in
	// place; Get never looks at it.
	shared []sharedHold
}

// sharedHold is one transaction's shared protection, with its own lease
// start so holders expire independently.
type sharedHold struct {
	owner string
	at    time.Duration
}

// Object is a Snapshot's copy of one object: value, version, and the
// protections in force on it.
type Object struct {
	Value   Value
	Version uint64
	// Protected/ProtectedBy are the exclusive protection and its holder.
	Protected   bool
	ProtectedBy string
	// SharedBy names the shared holders (nil when there are none).
	SharedBy []string
}

// BusyError is the ErrBusy of a refused Get or protection. It names the
// holder that refused and the mode it held, read under the same lock that
// made the refusal, so the witness is always the holder that actually
// refused.
type BusyError struct {
	Holder string
	Shared bool
}

func (e *BusyError) Error() string {
	mode := "exclusive"
	if e.Shared {
		mode = "shared"
	}
	return fmt.Sprintf("%v (%s hold by %s)", ErrBusy, mode, e.Holder)
}

// Unwrap makes errors.Is(err, ErrBusy) hold for every refusal.
func (e *BusyError) Unwrap() error { return ErrBusy }

// Errors reported by Store operations.
var (
	// ErrBusy indicates the object is protected by a committing transaction.
	// Refusals carry it wrapped in a *BusyError.
	ErrBusy = errors.New("store: object protected by a committing transaction")
	// ErrNotFound indicates the object does not exist on this replica.
	ErrNotFound = errors.New("store: object not found")
	// ErrNotOwner indicates an unprotect/apply by a non-owning transaction.
	ErrNotOwner = errors.New("store: transaction does not hold the protection")
)

// Store is one node's full replica of the shared object space.
// All methods are safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	objs map[ObjectID]*object

	// protectTTL, when positive, expires protections whose owner never
	// delivered a commit decision (e.g. a client crashed between the two
	// 2PC phases). It must be far longer than any real commit; failure-
	// injection harnesses enable it, plain runs leave it off.
	protectTTL time.Duration
	now        func() time.Time
	// epoch is what lease starts are measured from (see object).
	epoch time.Time
}

// New returns an empty store.
func New() *Store {
	return &Store{objs: make(map[ObjectID]*object), now: time.Now, epoch: time.Now()}
}

// SetProtectTTL enables lease-style expiry of protections; d <= 0 disables
// it. now may be nil for time.Now.
func (s *Store) SetProtectTTL(d time.Duration, now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.protectTTL = d
	if now != nil {
		s.now = now
	}
}

// sinceEpoch is the store's clock reading, as lease starts record it.
func (s *Store) sinceEpoch() time.Duration { return s.now().Sub(s.epoch) }

// leaseLive reports whether a protection taken at the given clock reading is
// still in force. Callers hold s.mu (read or write).
func (s *Store) leaseLive(at time.Duration) bool {
	return s.protectTTL <= 0 || s.sinceEpoch()-at < s.protectTTL
}

// protectionActive reports whether o's exclusive protection is still in
// force. Callers hold s.mu (read or write).
func (s *Store) protectionActive(o *object) bool {
	return o.protected && s.leaseLive(o.protectedAt)
}

// dropShared removes owner's shared hold and every lapsed one, in place (a
// hot row keeps its slice). The vacated slots are zeroed: an owner string may
// be a view into the request it arrived in (wire.DecodeEnvelope), and a row
// must not keep that alive past the hold. Callers hold s.mu for writing.
func (s *Store) dropShared(o *object, owner string) {
	kept := o.shared[:0]
	for _, h := range o.shared {
		if h.owner != owner && s.leaseLive(h.at) {
			kept = append(kept, h)
		}
	}
	clear(o.shared[len(kept):])
	o.shared = kept
}

// insert creates the row for id, under a key of its own (ObjectID.Clone): rows
// outlive every message. Callers hold s.mu for writing.
func (s *Store) insert(id ObjectID) *object {
	o := &object{}
	s.objs[id.Clone()] = o
	return o
}

// Seed installs an object with version 1, overwriting any previous state.
// It is meant for initial data loading before transactions run. Like
// SeedBatch, it installs v itself: the caller hands it over and must not
// mutate it afterwards (see Committed).
func (s *Store) Seed(id ObjectID, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[id] = &object{value: v, version: 1}
}

// SeedBatch installs many objects at once.
func (s *Store) SeedBatch(objs map[ObjectID]Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, v := range objs {
		s.objs[id] = &object{value: v, version: 1}
	}
}

// Get returns a deep copy of the object's value and its version.
// It returns ErrBusy (a *BusyError naming the holder) while the object is
// exclusively protected and ErrNotFound for missing objects. Shared
// protections do not refuse it: their holders only read the object, so the
// value Get returns stays current until every one of them has decided.
func (s *Store) Get(id ObjectID) (Value, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objs[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	if s.protectionActive(o) {
		return nil, 0, &BusyError{Holder: o.protectedBy}
	}
	return Clone(o.value), o.version, nil
}

// Version returns the replica-local version of an object, and false if the
// object is absent. Protected objects still report their pre-commit version.
func (s *Store) Version(id ObjectID) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objs[id]
	if !ok {
		return 0, false
	}
	return o.version, true
}

// Validate checks a read-set against this replica and returns the IDs whose
// observed version is older than the replica's (i.e. objects invalidated by
// a commit that happened after the transaction read them). Unknown objects
// are not reported: a replica that never saw the object cannot invalidate it.
func (s *Store) Validate(reads []ReadDesc) []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var invalid []ObjectID
	for _, r := range reads {
		if o, ok := s.objs[r.ID]; ok && o.version > r.Version {
			invalid = append(invalid, r.ID)
		}
	}
	return invalid
}

// Protect takes the exclusive protection on behalf of transaction owner.
// A transaction may re-protect an object it already protects (idempotent,
// and the lease restarts); a shared hold of its own is upgraded. It fails
// with ErrBusy when another transaction holds a protection of either mode
// and with ErrNotFound when the object is absent; objects being created by a
// first-ever write are implicitly created empty at version 0 so they can be
// protected.
func (s *Store) Protect(id ObjectID, owner string, createIfMissing bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[id]
	if !ok {
		if !createIfMissing {
			return ErrNotFound
		}
		o = s.insert(id)
	}
	if s.protectionActive(o) && o.protectedBy != owner {
		return &BusyError{Holder: o.protectedBy}
	}
	if len(o.shared) > 0 {
		s.dropShared(o, "") // lapsed holds refuse nothing
		for _, h := range o.shared {
			if h.owner != owner {
				return &BusyError{Holder: h.owner, Shared: true}
			}
		}
		clear(o.shared)
		o.shared = o.shared[:0] // only owner's own hold can be left: upgrade it
	}
	o.protected = true
	o.protectedBy = owner
	o.protectedAt = s.sinceEpoch()
	return nil
}

// ProtectShared takes a shared protection on behalf of transaction owner:
// it refuses later exclusive protections by others, not reads and not other
// shared holders. Re-protecting restarts owner's lease; an owner that already
// holds the object exclusively keeps that (stronger) hold. It fails with
// ErrBusy when another transaction holds the object exclusively and with
// ErrNotFound when the object is absent.
func (s *Store) ProtectShared(id ObjectID, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if s.protectionActive(o) {
		if o.protectedBy != owner {
			return &BusyError{Holder: o.protectedBy}
		}
		o.protectedAt = s.sinceEpoch()
		return nil
	}
	s.dropShared(o, owner)
	o.shared = append(o.shared, sharedHold{owner: owner, at: s.sinceEpoch()})
	return nil
}

// Unprotect releases whatever protection owner holds on the object, in
// either mode, and nothing anyone else holds. It reports ErrNotOwner when
// owner holds nothing while another transaction holds the object
// exclusively.
func (s *Store) Unprotect(id ObjectID, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[id]
	if !ok {
		return ErrNotFound
	}
	if len(o.shared) > 0 {
		s.dropShared(o, owner)
	}
	if !o.protected {
		return nil
	}
	if o.protectedBy != owner {
		return ErrNotOwner
	}
	o.protected = false
	o.protectedBy = ""
	return nil
}

// Apply installs a committed write and releases owner's protection (other
// transactions' shared holds stay). The version only moves forward: replicas
// that already learned a newer version through another write quorum keep it.
func (s *Store) Apply(w WriteDesc, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[w.ID]
	if !ok {
		o = s.insert(w.ID)
	}
	if o.protected && o.protectedBy != owner {
		return ErrNotOwner
	}
	if len(o.shared) > 0 {
		s.dropShared(o, owner)
	}
	if w.NewVersion > o.version {
		o.version = w.NewVersion
		o.value = Clone(w.Value)
	}
	o.protected = false
	o.protectedBy = ""
	return nil
}

// Restore installs recovered objects (value + version, no protection
// state) ahead of serving, e.g. from a write-ahead-log replay. Versions
// only move forward, so restoring over seeded or partially repaired state
// never regresses an object.
func (s *Store) Restore(objs []WriteDesc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range objs {
		o, ok := s.objs[w.ID]
		if !ok {
			o = s.insert(w.ID)
		}
		if w.NewVersion <= o.version {
			continue
		}
		o.version = w.NewVersion
		o.value = Clone(w.Value)
	}
}

// Len reports the number of objects on this replica.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objs)
}

// IDs returns all object IDs in sorted order (test/debug helper).
func (s *Store) IDs() []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Snapshot returns a deep copy of value+version for every object, together
// with the protections in force on it (exclusive holder, shared holders;
// lapsed leases are left out). Invariant-checking tests audit the holds — a
// stranded shared hold refuses no read, so this is the only place it shows.
func (s *Store) Snapshot() map[ObjectID]Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[ObjectID]Object, len(s.objs))
	for id, o := range s.objs {
		c := Object{Version: o.version}
		if s.protectionActive(o) {
			c.Protected, c.ProtectedBy = true, o.protectedBy
		}
		for _, h := range o.shared {
			if s.leaseLive(h.at) {
				c.SharedBy = append(c.SharedBy, h.owner)
			}
		}
		c.Value = Clone(o.value)
		out[id] = c
	}
	return out
}

// Committed returns every object's committed value and version, for a
// checkpoint's snapshot. The values are the installed ones, not copies:
// Apply and Restore install clones and Get hands out clones, so an installed
// value is never mutated, and the caller must not mutate it either. The read
// lock is held for one pointer-copying pass.
func (s *Store) Committed() []WriteDesc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]WriteDesc, 0, len(s.objs))
	for id, o := range s.objs {
		out = append(out, WriteDesc{ID: id, Value: o.value, NewVersion: o.version})
	}
	return out
}
