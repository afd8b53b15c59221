// Package store implements the versioned, fully-replicated object store kept
// by every quorum node of the DTM, together with the object meta-data the
// QR-CN protocol relies on (version numbers and the Protected commit flag).
package store

import "fmt"

// Value is the type of data held by a shared object. Implementations must
// return a deep copy from CloneValue: stores, seeds and transactions keep
// and hand out copies (Get, Apply, Tx.Read, checkpoints), so any shared
// mutable state would let one holder reach a replica's or another's state.
type Value interface {
	CloneValue() Value
}

// Clone returns a deep copy of v, like v.CloneValue, except that an Int64,
// Float64 or String is returned as it is: immutable, it is its own copy, and
// handing back the same interface skips the re-boxing CloneValue's result
// costs (every Int64 above 255 is a new allocation). Clone(nil) is nil.
func Clone(v Value) Value {
	switch v.(type) {
	case nil, Int64, Float64, String:
		return v
	}
	return v.CloneValue()
}

// Int64 is a scalar value, the workhorse for counters and balances.
type Int64 int64

// CloneValue implements Value. Int64 is immutable, so it returns itself.
func (v Int64) CloneValue() Value { return v }

func (v Int64) String() string { return fmt.Sprintf("Int64(%d)", int64(v)) }

// Float64 is a scalar floating-point value.
type Float64 float64

// CloneValue implements Value.
func (v Float64) CloneValue() Value { return v }

// String is an immutable string value.
type String string

// CloneValue implements Value.
func (v String) CloneValue() Value { return v }

// Bytes is a mutable byte-slice value; CloneValue copies the backing array.
type Bytes []byte

// CloneValue implements Value.
func (v Bytes) CloneValue() Value {
	out := make(Bytes, len(v))
	copy(out, v)
	return out
}

// Tuple is an ordered collection of values, useful for small composite rows.
type Tuple []Value

// CloneValue implements Value by deep-copying every element.
func (v Tuple) CloneValue() Value {
	out := make(Tuple, len(v))
	for i, e := range v {
		out[i] = Clone(e)
	}
	return out
}

// AsInt64 extracts an Int64 value, returning 0 for nil.
// It panics on a different concrete type, which always indicates a workload
// programming error rather than a runtime condition.
func AsInt64(v Value) int64 {
	if v == nil {
		return 0
	}
	return int64(v.(Int64))
}

// AsFloat64 extracts a Float64 value, returning 0 for nil.
func AsFloat64(v Value) float64 {
	if v == nil {
		return 0
	}
	return float64(v.(Float64))
}

// AsString extracts a String value, returning "" for nil.
func AsString(v Value) string {
	if v == nil {
		return ""
	}
	return string(v.(String))
}
