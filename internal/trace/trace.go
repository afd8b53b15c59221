// Package trace records spans: the timed operations of a distributed
// transaction (attempts, Blocks, retries, reads, commits on the client; serve
// handlers and fsync waits on the servers), kept in a fixed-size concurrent
// ring that never allocates after its first record. What happened and why —
// aborts, their causes, recompositions — is internal/forensics' and the
// runtime counters' to say; a span says where the time went.
package trace

// Tracer records spans into a bounded ring (see Ring). Every method is safe
// for concurrent use and on a nil Tracer, which records nothing: a Tracer
// records exactly when it is non-nil. Build one with New.
type Tracer struct {
	spans *Ring[Span]
}

// New returns a tracer holding the last capacity spans.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Tracer{spans: NewRing[Span](capacity)}
}
