package wire

import (
	"bytes"
	"encoding/gob"
	"io"
	"reflect"
	"testing"
)

// encoding/gob is the reference the binary codec is differentially tested
// against (FuzzCodecEquivalence, the round-trip tests). It exists only here:
// production carries no gob envelope path.

func gobEncode(w io.Writer, env *Envelope) error { return gob.NewEncoder(w).Encode(env) }

func gobDecode(r io.Reader) (*Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
}

// binaryRoundTrip frames env through a fresh encoder and decoder.
func binaryRoundTrip(env *Envelope, compress bool) (*Envelope, error) {
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, compress).Encode(env); err != nil {
		return nil, err
	}
	return NewBinaryDecoder(&buf).Decode()
}

// mustRoundTrip requires the binary codec, and the gob oracle beside it, to
// reproduce env exactly.
func mustRoundTrip(t *testing.T, env *Envelope, compress bool) {
	t.Helper()
	got, err := binaryRoundTrip(env, compress)
	if err != nil {
		t.Fatalf("binary (compress=%v): %v", compress, err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("binary (compress=%v) mutated the envelope:\n got %+v\nwant %+v", compress, got, env)
	}
	var buf bytes.Buffer
	if err := gobEncode(&buf, env); err != nil {
		t.Fatalf("gob oracle: %v", err)
	}
	ref, err := gobDecode(&buf)
	if err != nil {
		t.Fatalf("gob oracle: %v", err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("binary disagrees with the gob oracle:\n binary %+v\n gob    %+v", got, ref)
	}
}
