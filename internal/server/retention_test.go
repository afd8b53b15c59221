package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"qracn/internal/store"
	"qracn/internal/wire"
)

// TestDecodedFramesAreNotRetainedPerKey: the strings of a decoded request are
// views into one copy of its frame (wire.DecodeEnvelope), so whatever a node
// keeps from a request for long — a store key on first insert, a contention
// meter key, a decided-outcome entry — must be a copy of its own, or every
// key keeps a whole frame alive. Each request here creates one row, one
// meter key and one outcome, and drags 40 KB of release list along; what is
// live afterwards has to be on the order of the keys, not of the frames.
func TestDecodedFramesAreNotRetainedPerKey(t *testing.T) {
	const requests = 300
	padding := make([]store.ObjectID, 1000)
	for i := range padding {
		padding[i] = store.ObjectID(fmt.Sprintf("no-such-row/%d/%s", i, strings.Repeat("x", 24)))
	}
	n := NewNode(0, Config{StatsWindow: time.Hour})
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	var buf []byte
	frameBytes := 0
	for i := 0; i < requests; i++ {
		req := &wire.Request{Kind: wire.KindDecision, TxID: fmt.Sprintf("c1-t%d-a0", i), Decision: &wire.DecisionRequest{
			Commit:  true,
			Writes:  []store.WriteDesc{{ID: store.ID("order", 0, i), Value: store.Int64(int64(i)), NewVersion: 1}},
			Release: padding,
		}}
		var err error
		if buf, err = wire.AppendEnvelope(buf[:0], &wire.Envelope{Req: req}); err != nil {
			t.Fatal(err)
		}
		frameBytes += len(buf)
		env, err := wire.DecodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		if resp := n.Handle(context.Background(), env.Req); resp.Status != wire.StatusOK {
			t.Fatalf("decision %d: %+v", i, resp)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	if n.Store().Len() != requests {
		t.Fatalf("store holds %d rows, want %d", n.Store().Len(), requests)
	}
	if limit := int64(frameBytes / 10); grown > limit {
		t.Fatalf("live heap grew by %d bytes over %d requests whose frames total %d: the node keeps frames alive (limit %d)",
			grown, requests, frameBytes, limit)
	}
	runtime.KeepAlive(n)
}
