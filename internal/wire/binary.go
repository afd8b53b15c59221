package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// The binary codec is a hand-rolled, fixed-layout wire format for Envelopes
// and the only one production speaks. Design goals, in order:
//
//  1. Zero allocations on encode: every message is appended into the
//     encoder's reusable buffer with append-only primitives; nothing escapes.
//  2. Corruption detection: every frame carries a CRC-32C of its wire
//     payload.
//  3. Self-describing envelopes: payload presence is an explicit bitmask,
//     so any envelope encoding/gob can represent round-trips identically —
//     the property FuzzCodecEquivalence checks against the in-test gob
//     oracle.
//
// Frame layout (a TCP connection opens with the transport's two-byte
// protocol-version preamble, then carries frames only):
//
//	4B big-endian payload length | 1B flags | 4B big-endian CRC-32C | payload
//
// flags bit0 marks a flate-compressed payload; the CRC covers the payload as
// it appears on the wire (post-compression), so integrity is checked before
// inflation. The payload encoding per message is documented field-by-field
// in DESIGN.md §10; primitives are:
//
//	u8      one byte
//	uvarint unsigned LEB128 (encoding/binary PutUvarint)
//	varint  zigzag signed LEB128
//	f64     8 bytes little-endian IEEE-754 bits
//	str     uvarint byte length + raw bytes
//	value   u8 type tag + body (see appendValue)
//
// Slices and maps encode as uvarint count + elements; a zero count decodes
// as nil, matching gob's omit-empty semantics so the codec stays
// decode-equivalent to the oracle.
const (
	binFlagCompressed byte = 1 << 0

	// binHeaderSize is the frame header: length + flags + CRC.
	binHeaderSize = 9

	// CompressThreshold is the minimum payload size worth compressing.
	CompressThreshold = 512

	// MaxFrameSize bounds a frame to keep a malformed peer from forcing a
	// huge allocation.
	MaxFrameSize = 64 << 20
)

// flateWriterPool recycles flate writers, which are far more expensive to
// construct (window + huffman state) than to Reset.
var flateWriterPool = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return fw
}}

// binCRC is the CRC-32C (Castagnoli) table, the same polynomial the WAL uses.
var binCRC = crc32.MakeTable(crc32.Castagnoli)

// Envelope flag bits (payload byte 2).
const (
	envIsResponse byte = 1 << 0
	envCancel     byte = 1 << 1
	envHasReq     byte = 1 << 2
	envHasResp    byte = 1 << 3
)

// Request payload presence bits, wire order. The mask is encoded as a
// uvarint (not a fixed byte) so the bit space is open-ended; values below
// 128 — every mask that existed before the ninth bit was added — encode
// byte-identically to the old single-byte layout. The blanks are the bits of
// payloads since deleted (the stats query, the tx-status asker, the resolve
// forward); they stay unused so no surviving bit moves.
const (
	reqHasRead uint64 = 1 << iota
	reqHasPrepare
	reqHasDecision
	_
	reqHasSync
	reqHasBatch
	reqHasRepair
	reqHasInspect
	_
	_
	reqHasShardMap
	// reqHasDeadline marks a non-zero Request.Deadline (a header field, not
	// a payload, but presence-masked the same way so deadline-free requests
	// — including every frame an old peer emits — stay byte-identical to
	// the pre-deadline layout).
	reqHasDeadline
)

// Response payload presence bits, wire order; uvarint-encoded like the
// request mask. The blank is the deleted stats reply's.
const (
	respHasRead uint64 = 1 << iota
	respHasPrepare
	_
	respHasSync
	respHasBatch
	respHasInspect
	respHasTxStatus
	respHasShardMap
	// respHasConflict marks a non-empty Response.ConflictTx (the conflict
	// witness on Busy replies — a header field like Request.Deadline, masked
	// the same way so conflict-free replies, i.e. every frame an old peer
	// emits, stay byte-identical to the pre-forensics layout even though
	// this is the first bit that pushes the response mask past one byte).
	respHasConflict
)

// The byte that leads a decision payload: bit0 is Commit, so a coordinator's
// decision is the 0 or 1 a plain bool was, and bit1 marks a forwarded one.
const (
	decCommit    byte = 1 << 0
	decForwarded byte = 1 << 1
)

// Value type tags.
const (
	valNil     byte = 0
	valInt64   byte = 1
	valFloat64 byte = 2
	valString  byte = 3
	valBytes   byte = 4
	valTuple   byte = 5
	// valGob is the escape hatch for workload-defined Value types registered
	// with RegisterValue: the value is gob-encoded in place. Built-in types
	// never take it, so the hot path stays reflection-free.
	valGob byte = 255
)

// ErrBadFrame reports a binary frame whose CRC or structure is invalid.
var ErrBadFrame = errors.New("wire: corrupt binary frame")

// maxBinaryDepth bounds recursion (nested tuples/batches) on BOTH encode and
// decode: the decoder so hostile input cannot overflow the stack, the encoder
// so every envelope the codec emits is one it can read back. Gob tolerates
// nesting two orders of magnitude deeper; refusing it symmetrically is an
// intentional, fuzz-asserted difference (no real message nests past ~3).
const maxBinaryDepth = 64

// errTooDeep is returned by the encoder for envelopes nested past
// maxBinaryDepth (the decoder reports the same condition via ErrBadFrame).
var errTooDeep = fmt.Errorf("wire: envelope nested deeper than %d", maxBinaryDepth)

// Codec is what transport.ChannelConfig.Codec holds: nil crosses the
// simulated node boundary by deep copy, Binary by a real encode and decode.
// There is no second codec to choose, so the type carries nothing else.
type Codec *struct{}

// Binary selects real serialization on the channel network.
var Binary Codec = new(struct{})

// BinaryEncoder writes binary-codec frames to one stream. Not safe for
// concurrent use. The payload and compression buffers persist across
// Encode calls, so steady-state encoding allocates nothing.
type BinaryEncoder struct {
	w        io.Writer
	compress bool
	buf      []byte // payload scratch, reused
	comp     []byte // compression scratch, reused
	// hdr lives on the struct, not the stack: a stack array passed through
	// the io.Writer interface would escape and cost one allocation per frame.
	hdr [binHeaderSize]byte
}

// NewBinaryEncoder creates an encoder bound to w.
func NewBinaryEncoder(w io.Writer, compress bool) *BinaryEncoder {
	return &BinaryEncoder{w: w, compress: compress}
}

// Encode writes one envelope as one CRC-framed binary frame.
func (e *BinaryEncoder) Encode(env *Envelope) error {
	var err error
	e.buf, err = AppendEnvelope(e.buf[:0], env)
	if err != nil {
		return err
	}
	payload := e.buf
	flags := byte(0)
	if e.compress && len(payload) > CompressThreshold {
		e.comp = e.comp[:0]
		fw := flateWriterPool.Get().(*flate.Writer)
		aw := appendWriter{b: &e.comp}
		fw.Reset(aw)
		_, werr := fw.Write(payload)
		if werr == nil {
			werr = fw.Close()
		}
		flateWriterPool.Put(fw)
		if werr != nil {
			return fmt.Errorf("wire: compress: %w", werr)
		}
		if len(e.comp) < len(payload) {
			payload = e.comp
			flags |= binFlagCompressed
		}
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	binary.BigEndian.PutUint32(e.hdr[:4], uint32(len(payload)))
	e.hdr[4] = flags
	binary.BigEndian.PutUint32(e.hdr[5:], crc32.Checksum(payload, binCRC))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		return err
	}
	_, err = e.w.Write(payload)
	return err
}

// appendWriter adapts an append-grown byte slice to io.Writer for the
// pooled flate writer.
type appendWriter struct{ b *[]byte }

func (a appendWriter) Write(p []byte) (int, error) {
	*a.b = append(*a.b, p...)
	return len(p), nil
}

// BinaryDecoder reads frames written by a BinaryEncoder. Not safe for
// concurrent use. The frame buffer persists across Decode calls.
type BinaryDecoder struct {
	r     io.Reader
	frame []byte
	hdr   [binHeaderSize]byte
}

// NewBinaryDecoder creates a decoder bound to r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{r: r}
}

// Decode reads the next envelope.
func (d *BinaryDecoder) Decode() (*Envelope, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:4])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, n)
	}
	if cap(d.frame) < int(n) {
		d.frame = make([]byte, n)
	}
	d.frame = d.frame[:n]
	if _, err := io.ReadFull(d.r, d.frame); err != nil {
		return nil, err
	}
	if crc32.Checksum(d.frame, binCRC) != binary.BigEndian.Uint32(d.hdr[5:]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	payload := d.frame
	if d.hdr[4]&binFlagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(payload))
		out, err := io.ReadAll(fr)
		fr.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: decompress: %v", ErrBadFrame, err)
		}
		payload = out
	}
	return DecodeEnvelope(payload)
}

// AppendEnvelope appends env's binary payload (no frame header) to dst and
// returns the extended slice. It allocates only if dst lacks capacity.
func AppendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	dst = binary.AppendUvarint(dst, env.Seq)
	var flags byte
	if env.IsResponse {
		flags |= envIsResponse
	}
	if env.Cancel {
		flags |= envCancel
	}
	if env.Req != nil {
		flags |= envHasReq
	}
	if env.Resp != nil {
		flags |= envHasResp
	}
	dst = append(dst, flags)
	var err error
	if env.Req != nil {
		if dst, err = appendRequest(dst, env.Req, 0); err != nil {
			return nil, err
		}
	}
	if env.Resp != nil {
		if dst, err = appendResponse(dst, env.Resp, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeEnvelope parses one binary envelope payload (no frame header). The
// envelope shares no memory with payload, which the caller may reuse; its
// identifier strings (transaction, trace and object IDs, details) are
// substrings of one private copy of the payload, so a holder that
// outlives the message by much — a table, a ring, a map key — should
// strings.Clone what it keeps, or it keeps the whole frame. Object values
// are copied out one by one: they are what stores and read sets retain.
func DecodeEnvelope(payload []byte) (*Envelope, error) {
	d := &binReader{buf: payload}
	seq, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	flags, err := d.u8()
	if err != nil {
		return nil, err
	}
	// An envelope and the one message it almost always carries are one
	// allocation.
	var env *Envelope
	switch flags & (envHasReq | envHasResp) {
	case envHasReq:
		m := &struct {
			Envelope
			req Request
		}{}
		env, m.Req = &m.Envelope, &m.req
	case envHasResp:
		m := &struct {
			Envelope
			resp Response
		}{}
		env, m.Resp = &m.Envelope, &m.resp
	case envHasReq | envHasResp:
		env = &Envelope{Req: &Request{}, Resp: &Response{}}
	default:
		env = &Envelope{}
	}
	env.Seq = seq
	env.IsResponse = flags&envIsResponse != 0
	env.Cancel = flags&envCancel != 0
	if env.Req != nil {
		if err = d.requestInto(env.Req, nil); err != nil {
			return nil, err
		}
	}
	if env.Resp != nil {
		if err = d.responseInto(env.Resp, nil); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.buf)-d.pos)
	}
	return env, nil
}

func appendRequest(dst []byte, r *Request, depth int) ([]byte, error) {
	if depth > maxBinaryDepth {
		return nil, errTooDeep
	}
	if r.Kind < 0 || r.Kind >= numKinds {
		return nil, fmt.Errorf("wire: cannot encode out-of-range kind %d", r.Kind)
	}
	dst = append(dst, byte(r.Kind))
	dst = appendString(dst, r.TxID)
	dst = appendString(dst, r.TraceID)
	dst = binary.AppendUvarint(dst, r.SpanID)
	var mask uint64
	if r.Read != nil {
		mask |= reqHasRead
	}
	if r.Prepare != nil {
		mask |= reqHasPrepare
	}
	if r.Decision != nil {
		mask |= reqHasDecision
	}
	if r.Sync != nil {
		mask |= reqHasSync
	}
	if r.Batch != nil {
		mask |= reqHasBatch
	}
	if r.Repair != nil {
		mask |= reqHasRepair
	}
	if r.Inspect != nil {
		mask |= reqHasInspect
	}
	if r.ShardMap != nil {
		mask |= reqHasShardMap
	}
	if r.Deadline != 0 {
		mask |= reqHasDeadline
	}
	dst = binary.AppendUvarint(dst, mask)
	var err error
	if r.Read != nil {
		dst = appendString(dst, string(r.Read.Object))
		dst = appendReadDescs(dst, r.Read.Validate)
		dst = appendIDs(dst, r.Read.StatsFor)
		dst = appendBool(dst, r.Read.VersionOnly)
	}
	if r.Prepare != nil {
		dst = appendReadDescs(dst, r.Prepare.Reads)
		if dst, err = appendWriteDescs(dst, r.Prepare.Writes, depth); err != nil {
			return nil, err
		}
		dst = appendNodeIDs(dst, r.Prepare.Quorum)
	}
	if r.Decision != nil {
		var how byte
		if r.Decision.Commit {
			how |= decCommit
		}
		if r.Decision.Forwarded {
			how |= decForwarded
		}
		dst = append(dst, how)
		if dst, err = appendWriteDescs(dst, r.Decision.Writes, depth); err != nil {
			return nil, err
		}
		dst = appendIDs(dst, r.Decision.Release)
	}
	if r.Sync != nil {
		dst = appendReadDescs(dst, r.Sync.Known)
	}
	if r.Batch != nil {
		dst = binary.AppendUvarint(dst, uint64(len(r.Batch.Subs)))
		for _, sub := range r.Batch.Subs {
			if sub == nil {
				dst = appendBool(dst, false)
				continue
			}
			dst = appendBool(dst, true)
			if dst, err = appendRequest(dst, sub, depth+1); err != nil {
				return nil, err
			}
		}
	}
	if r.Repair != nil {
		dst = appendString(dst, string(r.Repair.Object))
		if dst, err = appendValue(dst, r.Repair.Value, depth); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, r.Repair.Version)
	}
	if r.Inspect != nil {
		dst = appendString(dst, r.Inspect.TraceID)
		dst = binary.AppendVarint(dst, int64(r.Inspect.TopK))
	}
	if r.ShardMap != nil {
		dst = binary.AppendUvarint(dst, r.ShardMap.HaveVersion)
	}
	if r.Deadline != 0 {
		dst = binary.AppendVarint(dst, r.Deadline)
	}
	return dst, nil
}

func appendResponse(dst []byte, r *Response, depth int) ([]byte, error) {
	if depth > maxBinaryDepth {
		return nil, errTooDeep
	}
	dst = binary.AppendVarint(dst, int64(r.Status))
	dst = appendString(dst, r.Detail)
	var mask uint64
	if r.Read != nil {
		mask |= respHasRead
	}
	if r.Prepare != nil {
		mask |= respHasPrepare
	}
	if r.Sync != nil {
		mask |= respHasSync
	}
	if r.Batch != nil {
		mask |= respHasBatch
	}
	if r.Inspect != nil {
		mask |= respHasInspect
	}
	if r.TxStatus != nil {
		mask |= respHasTxStatus
	}
	if r.ShardMap != nil {
		mask |= respHasShardMap
	}
	if r.ConflictTx != "" {
		mask |= respHasConflict
	}
	dst = binary.AppendUvarint(dst, mask)
	var err error
	if r.Read != nil {
		if dst, err = appendValue(dst, r.Read.Value, depth); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, r.Read.Version)
		dst = appendIDs(dst, r.Read.Invalid)
		dst = appendLevels(dst, r.Read.Stats)
	}
	if r.Prepare != nil {
		dst = appendBool(dst, r.Prepare.Vote)
		dst = appendIDs(dst, r.Prepare.Invalid)
		dst = appendIDs(dst, r.Prepare.Busy)
	}
	if r.Sync != nil {
		if dst, err = appendWriteDescs(dst, r.Sync.Objects, depth); err != nil {
			return nil, err
		}
	}
	if r.Batch != nil {
		dst = binary.AppendUvarint(dst, uint64(len(r.Batch.Subs)))
		for _, sub := range r.Batch.Subs {
			if sub == nil {
				dst = appendBool(dst, false)
				continue
			}
			dst = appendBool(dst, true)
			if dst, err = appendResponse(dst, sub, depth+1); err != nil {
				return nil, err
			}
		}
	}
	if r.Inspect != nil {
		dst = binary.AppendUvarint(dst, uint64(len(r.Inspect.Doc)))
		dst = append(dst, r.Inspect.Doc...)
	}
	if r.TxStatus != nil {
		dst = binary.AppendVarint(dst, int64(r.TxStatus.State))
	}
	if r.ShardMap != nil {
		dst = binary.AppendUvarint(dst, r.ShardMap.Version)
		dst = binary.AppendVarint(dst, int64(r.ShardMap.Degree))
		dst = binary.AppendUvarint(dst, uint64(len(r.ShardMap.Groups)))
		for _, g := range r.ShardMap.Groups {
			dst = appendNodeIDs(dst, g)
		}
	}
	if r.ConflictTx != "" {
		dst = appendString(dst, r.ConflictTx)
	}
	return dst, nil
}

// Primitive appenders.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendReadDescs(dst []byte, descs []store.ReadDesc) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(descs)))
	for _, d := range descs {
		dst = appendString(dst, string(d.ID))
		dst = binary.AppendUvarint(dst, d.Version)
	}
	return dst
}

func appendWriteDescs(dst []byte, descs []store.WriteDesc, depth int) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(descs)))
	var err error
	for i := range descs {
		w := &descs[i]
		dst = appendString(dst, string(w.ID))
		if dst, err = appendValue(dst, w.Value, depth); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, w.NewVersion)
		dst = binary.AppendVarint(dst, int64(w.Block))
	}
	return dst, nil
}

func appendIDs(dst []byte, ids []store.ObjectID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, string(id))
	}
	return dst
}

func appendNodeIDs(dst []byte, ids []quorum.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendVarint(dst, int64(id))
	}
	return dst
}

func appendLevels(dst []byte, levels map[store.ObjectID]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(levels)))
	for id, lvl := range levels {
		dst = appendString(dst, string(id))
		dst = appendFloat64(dst, lvl)
	}
	return dst
}

// valueBox wraps a Value so the gob escape hatch can encode the interface
// (gob requires a concrete top-level type).
type valueBox struct{ V store.Value }

// The built-in types never take the escape hatch themselves, but a custom
// type may hold them in a Value-typed field, which gob can only carry once
// the concrete type is registered.
func init() {
	gob.Register(store.Int64(0))
	gob.Register(store.Float64(0))
	gob.Register(store.String(""))
	gob.Register(store.Bytes(nil))
	gob.Register(store.Tuple(nil))
}

// RegisterValue makes a concrete store.Value type known to the codec.
// Workloads with custom value types must call it before using the TCP
// transport or a durable node.
func RegisterValue(v store.Value) { gob.Register(v) }

// AppendValue appends a store.Value in the binary value encoding. Built-in
// types take the fixed tags; registered custom types fall back to an inline
// gob blob.
func AppendValue(dst []byte, v store.Value) ([]byte, error) { return appendValue(dst, v, 0) }

func appendValue(dst []byte, v store.Value, depth int) ([]byte, error) {
	if depth > maxBinaryDepth {
		return nil, errTooDeep
	}
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case store.Int64:
		dst = append(dst, valInt64)
		return binary.AppendVarint(dst, int64(x)), nil
	case store.Float64:
		dst = append(dst, valFloat64)
		return appendFloat64(dst, float64(x)), nil
	case store.String:
		dst = append(dst, valString)
		return appendString(dst, string(x)), nil
	case store.Bytes:
		dst = append(dst, valBytes)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case store.Tuple:
		dst = append(dst, valTuple)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&valueBox{V: v}); err != nil {
			return nil, fmt.Errorf("wire: encode value %T: %w", v, err)
		}
		dst = append(dst, valGob)
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		return append(dst, buf.Bytes()...), nil
	}
}

// DecodeValue parses one binary-encoded value from the front of buf,
// returning the value and the number of bytes consumed.
func DecodeValue(buf []byte) (store.Value, int, error) {
	d := &binReader{buf: buf}
	v, err := d.value()
	if err != nil {
		return nil, 0, err
	}
	return v, d.pos, nil
}

// binReader is the allocation-lean payload parser. Counts are validated
// against the remaining bytes before any slice is sized, so a hostile
// length cannot force a huge allocation, and recursion is depth-bounded.
type binReader struct {
	buf []byte
	// frame is an immutable copy of buf that str hands out substrings of,
	// made by the first non-empty one: many replies carry no string at all.
	frame string
	pos   int
	depth int
}

func (d *binReader) remaining() int { return len(d.buf) - d.pos }

func (d *binReader) fail(what string) error {
	return fmt.Errorf("%w: truncated %s at offset %d", ErrBadFrame, what, d.pos)
}

func (d *binReader) u8() (byte, error) {
	if d.remaining() < 1 {
		return 0, d.fail("byte")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *binReader) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("varint")
	}
	d.pos += n
	return v, nil
}

// count reads a collection length and sanity-checks it against the bytes
// left (every element costs at least one byte).
func (d *binReader) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: %s count %d exceeds remaining %d bytes",
			ErrBadFrame, what, v, d.remaining())
	}
	return int(v), nil
}

// str reads an identifier string as a substring of the frame copy: one
// allocation per frame instead of one per string. An empty string is the
// constant, not a zero-length view that would still pin the frame.
func (d *binReader) str() (string, error) {
	n, err := d.count("string")
	if err != nil || n == 0 {
		return "", err
	}
	if d.frame == "" {
		d.frame = string(d.buf)
	}
	s := d.frame[d.pos : d.pos+n]
	d.pos += n
	return s, nil
}

// strCopy reads a string into memory of its own.
func (d *binReader) strCopy() (string, error) {
	n, err := d.count("string")
	if err != nil {
		return "", err
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

func (d *binReader) bytesCopy() ([]byte, error) {
	n, err := d.count("bytes")
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:d.pos+n])
	d.pos += n
	return out, nil
}

func (d *binReader) boolean() (bool, error) {
	b, err := d.u8()
	return b != 0, err
}

func (d *binReader) f64() (float64, error) {
	if d.remaining() < 8 {
		return 0, d.fail("float64")
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(bits), nil
}

func (d *binReader) enter() error {
	d.depth++
	if d.depth > maxBinaryDepth {
		return fmt.Errorf("%w: nesting deeper than %d", ErrBadFrame, maxBinaryDepth)
	}
	return nil
}

// minSubBytes is the least a present batch sub-response occupies on the wire
// (presence byte, status, detail length, mask; a sub-request takes two more):
// it bounds how many a frame can hold, and so the slab a batch decodes them
// into, whatever count the frame claims.
const minSubBytes = 4

// requestInto decodes a request into r. rr, when non-nil, is zeroed memory
// for the read payload, should there be one: a batch decodes its sub-requests
// and their reads into two slabs instead of two allocations apiece.
func (d *binReader) requestInto(r *Request, rr *ReadRequest) error {
	if err := d.enter(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	kb, err := d.u8()
	if err != nil {
		return err
	}
	if Kind(kb) >= numKinds {
		return fmt.Errorf("%w: kind byte %d out of range [0,%d)", ErrBadFrame, kb, int(numKinds))
	}
	r.Kind = Kind(kb)
	if r.TxID, err = d.str(); err != nil {
		return err
	}
	if r.TraceID, err = d.str(); err != nil {
		return err
	}
	if r.SpanID, err = d.uvarint(); err != nil {
		return err
	}
	mask, err := d.uvarint()
	if err != nil {
		return err
	}
	if mask&reqHasRead != 0 {
		if rr == nil {
			rr = &ReadRequest{}
		}
		var obj string
		if obj, err = d.str(); err != nil {
			return err
		}
		rr.Object = store.ObjectID(obj)
		if rr.Validate, err = d.readDescs(); err != nil {
			return err
		}
		if rr.StatsFor, err = d.ids(); err != nil {
			return err
		}
		if rr.VersionOnly, err = d.boolean(); err != nil {
			return err
		}
		r.Read = rr
	}
	if mask&reqHasPrepare != 0 {
		pr := &PrepareRequest{}
		if pr.Reads, err = d.readDescs(); err != nil {
			return err
		}
		if pr.Writes, err = d.writeDescs(); err != nil {
			return err
		}
		if pr.Quorum, err = d.nodeIDs(); err != nil {
			return err
		}
		r.Prepare = pr
	}
	if mask&reqHasDecision != 0 {
		dr := &DecisionRequest{}
		var how byte
		if how, err = d.u8(); err != nil {
			return err
		}
		dr.Commit, dr.Forwarded = how&decCommit != 0, how&decForwarded != 0
		if dr.Writes, err = d.writeDescs(); err != nil {
			return err
		}
		if dr.Release, err = d.ids(); err != nil {
			return err
		}
		r.Decision = dr
	}
	if mask&reqHasSync != 0 {
		sr := &SyncRequest{}
		if sr.Known, err = d.readDescs(); err != nil {
			return err
		}
		r.Sync = sr
	}
	if mask&reqHasBatch != 0 {
		n, err := d.count("batch")
		if err != nil {
			return err
		}
		br := &BatchRequest{Subs: make([]*Request, n)}
		subs := make([]Request, min(n, d.remaining()/minSubBytes))
		reads := make([]ReadRequest, len(subs))
		for i, used := 0, 0; i < n; i++ {
			present, err := d.boolean()
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if used == len(subs) {
				return d.fail("batch sub-request")
			}
			br.Subs[i] = &subs[used]
			if err = d.requestInto(br.Subs[i], &reads[used]); err != nil {
				return err
			}
			used++
		}
		r.Batch = br
	}
	if mask&reqHasRepair != 0 {
		rp := &RepairRequest{}
		var obj string
		if obj, err = d.str(); err != nil {
			return err
		}
		rp.Object = store.ObjectID(obj)
		if rp.Value, err = d.value(); err != nil {
			return err
		}
		if rp.Version, err = d.uvarint(); err != nil {
			return err
		}
		r.Repair = rp
	}
	if mask&reqHasInspect != 0 {
		ir := &InspectRequest{}
		if ir.TraceID, err = d.str(); err != nil {
			return err
		}
		var topK int64
		if topK, err = d.varint(); err != nil {
			return err
		}
		ir.TopK = int(topK)
		r.Inspect = ir
	}
	if mask&reqHasShardMap != 0 {
		sm := &ShardMapRequest{}
		if sm.HaveVersion, err = d.uvarint(); err != nil {
			return err
		}
		r.ShardMap = sm
	}
	if mask&reqHasDeadline != 0 {
		if r.Deadline, err = d.varint(); err != nil {
			return err
		}
	}
	return nil
}

// responseInto is requestInto for responses: rr is zeroed memory for the
// read payload, should there be one.
func (d *binReader) responseInto(r *Response, rr *ReadResponse) error {
	if err := d.enter(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	status, err := d.varint()
	if err != nil {
		return err
	}
	r.Status = Status(status)
	if r.Detail, err = d.str(); err != nil {
		return err
	}
	mask, err := d.uvarint()
	if err != nil {
		return err
	}
	if mask&respHasRead != 0 {
		if rr == nil {
			rr = &ReadResponse{}
		}
		if rr.Value, err = d.value(); err != nil {
			return err
		}
		if rr.Version, err = d.uvarint(); err != nil {
			return err
		}
		if rr.Invalid, err = d.ids(); err != nil {
			return err
		}
		if rr.Stats, err = d.levels(); err != nil {
			return err
		}
		r.Read = rr
	}
	if mask&respHasPrepare != 0 {
		pr := &PrepareResponse{}
		if pr.Vote, err = d.boolean(); err != nil {
			return err
		}
		if pr.Invalid, err = d.ids(); err != nil {
			return err
		}
		if pr.Busy, err = d.ids(); err != nil {
			return err
		}
		r.Prepare = pr
	}
	if mask&respHasSync != 0 {
		sr := &SyncResponse{}
		if sr.Objects, err = d.writeDescs(); err != nil {
			return err
		}
		r.Sync = sr
	}
	if mask&respHasBatch != 0 {
		n, err := d.count("batch")
		if err != nil {
			return err
		}
		br := &BatchResponse{Subs: make([]*Response, n)}
		subs := make([]Response, min(n, d.remaining()/minSubBytes))
		reads := make([]ReadResponse, len(subs))
		for i, used := 0, 0; i < n; i++ {
			present, err := d.boolean()
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if used == len(subs) {
				return d.fail("batch sub-response")
			}
			br.Subs[i] = &subs[used]
			if err = d.responseInto(br.Subs[i], &reads[used]); err != nil {
				return err
			}
			used++
		}
		r.Batch = br
	}
	if mask&respHasInspect != 0 {
		ir := &InspectResponse{}
		if ir.Doc, err = d.bytesCopy(); err != nil {
			return err
		}
		if len(ir.Doc) == 0 {
			ir.Doc = nil // like every empty slice the codec decodes
		}
		r.Inspect = ir
	}
	if mask&respHasTxStatus != 0 {
		ts := &TxStatusResponse{}
		var state int64
		if state, err = d.varint(); err != nil {
			return err
		}
		ts.State = TxState(state)
		r.TxStatus = ts
	}
	if mask&respHasShardMap != 0 {
		sm := &ShardMapResponse{}
		if sm.Version, err = d.uvarint(); err != nil {
			return err
		}
		var degree int64
		if degree, err = d.varint(); err != nil {
			return err
		}
		sm.Degree = int(degree)
		n, err := d.count("shard groups")
		if err != nil {
			return err
		}
		if n > 0 {
			sm.Groups = make([][]quorum.NodeID, n)
			for i := range sm.Groups {
				if sm.Groups[i], err = d.nodeIDs(); err != nil {
					return err
				}
			}
		}
		r.ShardMap = sm
	}
	if mask&respHasConflict != 0 {
		if r.ConflictTx, err = d.str(); err != nil {
			return err
		}
	}
	return nil
}

func (d *binReader) readDescs() ([]store.ReadDesc, error) {
	n, err := d.count("read descs")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]store.ReadDesc, n)
	for i := range out {
		var id string
		if id, err = d.str(); err != nil {
			return nil, err
		}
		out[i].ID = store.ObjectID(id)
		if out[i].Version, err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *binReader) writeDescs() ([]store.WriteDesc, error) {
	n, err := d.count("write descs")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]store.WriteDesc, n)
	for i := range out {
		var id string
		if id, err = d.str(); err != nil {
			return nil, err
		}
		out[i].ID = store.ObjectID(id)
		if out[i].Value, err = d.value(); err != nil {
			return nil, err
		}
		if out[i].NewVersion, err = d.uvarint(); err != nil {
			return nil, err
		}
		var block int64
		if block, err = d.varint(); err != nil {
			return nil, err
		}
		out[i].Block = int(block)
	}
	return out, nil
}

func (d *binReader) nodeIDs() ([]quorum.NodeID, error) {
	n, err := d.count("node ids")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]quorum.NodeID, n)
	for i := range out {
		var id int64
		if id, err = d.varint(); err != nil {
			return nil, err
		}
		out[i] = quorum.NodeID(id)
	}
	return out, nil
}

func (d *binReader) ids() ([]store.ObjectID, error) {
	n, err := d.count("ids")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]store.ObjectID, n)
	for i := range out {
		var id string
		if id, err = d.str(); err != nil {
			return nil, err
		}
		out[i] = store.ObjectID(id)
	}
	return out, nil
}

func (d *binReader) levels() (map[store.ObjectID]float64, error) {
	n, err := d.count("levels")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(map[store.ObjectID]float64, n)
	for i := 0; i < n; i++ {
		id, err := d.str()
		if err != nil {
			return nil, err
		}
		lvl, err := d.f64()
		if err != nil {
			return nil, err
		}
		out[store.ObjectID(id)] = lvl
	}
	return out, nil
}

func (d *binReader) value() (store.Value, error) {
	if err := d.enter(); err != nil {
		return nil, err
	}
	defer func() { d.depth-- }()
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case valNil:
		return nil, nil
	case valInt64:
		v, err := d.varint()
		return store.Int64(v), err
	case valFloat64:
		v, err := d.f64()
		return store.Float64(v), err
	case valString:
		v, err := d.strCopy()
		return store.String(v), err
	case valBytes:
		v, err := d.bytesCopy()
		return store.Bytes(v), err
	case valTuple:
		n, err := d.count("tuple")
		if err != nil {
			return nil, err
		}
		out := make(store.Tuple, n)
		for i := range out {
			if out[i], err = d.value(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case valGob:
		n, err := d.count("gob value")
		if err != nil {
			return nil, err
		}
		var box valueBox
		if err := gob.NewDecoder(bytes.NewReader(d.buf[d.pos : d.pos+n])).Decode(&box); err != nil {
			return nil, fmt.Errorf("%w: embedded gob value: %v", ErrBadFrame, err)
		}
		d.pos += n
		return box.V, nil
	default:
		return nil, fmt.Errorf("%w: unknown value tag %d", ErrBadFrame, tag)
	}
}
