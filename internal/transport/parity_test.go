package transport

import (
	"context"
	"reflect"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// exchange is one call: the request a client sends and the reply its node
// answers with.
type exchange struct {
	req  *wire.Request
	resp *wire.Response
}

// parityExchanges holds one exchange per wire kind, with every field the
// kind uses set (empty slices and maps are left nil: the codec delivers them
// as nil).
var parityExchanges = map[wire.Kind]exchange{
	wire.KindRead: {
		req: &wire.Request{Kind: wire.KindRead, TxID: "c1-t1-a0", TraceID: "c1-t1", SpanID: 7, Deadline: 1700000000123456789,
			Read: &wire.ReadRequest{
				Object:   store.ID("acct", 1),
				Validate: []store.ReadDesc{{ID: store.ID("acct", 2), Version: 3}},
				StatsFor: []store.ObjectID{store.ID("acct", 1)},
			}},
		resp: &wire.Response{Status: wire.StatusBusy, ConflictTx: "c2-t5-a1", Read: &wire.ReadResponse{
			Value:   store.Tuple{store.Int64(300), store.String("x"), store.Bytes{1, 2}},
			Version: 4,
			Invalid: []store.ObjectID{store.ID("acct", 2)},
			Stats:   map[store.ObjectID]float64{store.ID("acct", 1): 2.5},
		}},
	},
	wire.KindPrepare: {
		req: &wire.Request{Kind: wire.KindPrepare, TxID: "c1-t2-a0", Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: store.ID("acct", 1), Version: 3}},
			Writes: []store.WriteDesc{{ID: store.ID("acct", 1), Value: store.Int64(42), NewVersion: 4, Block: 2}},
			Quorum: []quorum.NodeID{0, 2, 5},
		}},
		resp: &wire.Response{Status: wire.StatusBusy, ConflictTx: "c3-t1-a0", Prepare: &wire.PrepareResponse{
			Invalid: []store.ObjectID{store.ID("acct", 4)},
			Busy:    []store.ObjectID{store.ID("acct", 1)},
		}},
	},
	wire.KindDecision: {
		req: &wire.Request{Kind: wire.KindDecision, TxID: "c1-t2-a0", Decision: &wire.DecisionRequest{
			Commit:    true,
			Forwarded: true,
			Writes:    []store.WriteDesc{{ID: store.ID("acct", 9), Value: store.String("v"), NewVersion: 11, Block: 1}},
			Release:   []store.ObjectID{store.ID("acct", 9)},
		}},
		resp: &wire.Response{Status: wire.StatusOK},
	},
	wire.KindShardMap: {
		req: &wire.Request{Kind: wire.KindShardMap, ShardMap: &wire.ShardMapRequest{HaveVersion: 3}},
		resp: &wire.Response{Status: wire.StatusOK, ShardMap: &wire.ShardMapResponse{
			Version: 4, Degree: 3, Groups: [][]quorum.NodeID{{0, 1, 2}, {3, 4, 5, 6}},
		}},
	},
	wire.KindPing: {
		req:  &wire.Request{Kind: wire.KindPing, TxID: "ping"},
		resp: &wire.Response{Status: wire.StatusOK, Detail: "pong"},
	},
	wire.KindBatch: {
		req: &wire.Request{Kind: wire.KindBatch, TxID: "c1-t3-a0", Batch: &wire.BatchRequest{Subs: []*wire.Request{
			{Kind: wire.KindRead, TxID: "c1-t3-a0", Read: &wire.ReadRequest{Object: store.ID("acct", 7)}},
			{Kind: wire.KindRead, TxID: "c1-t3-a0", Read: &wire.ReadRequest{
				Object: store.ID("acct", 8), Validate: []store.ReadDesc{{ID: store.ID("acct", 7), Version: 1}},
			}},
		}}},
		resp: &wire.Response{Status: wire.StatusOK, Batch: &wire.BatchResponse{Subs: []*wire.Response{
			{Status: wire.StatusOK, Read: &wire.ReadResponse{Value: store.Int64(7), Version: 1}},
			{Status: wire.StatusNotFound},
		}}},
	},
	wire.KindRepair: {
		req: &wire.Request{Kind: wire.KindRepair, Repair: &wire.RepairRequest{
			Object: store.ID("acct", 4), Value: store.Int64(99), Version: 13,
		}},
		resp: &wire.Response{Status: wire.StatusOK},
	},
	wire.KindInspect: {
		req: &wire.Request{Kind: wire.KindInspect, TraceID: "c1-t2-a0", SpanID: 17,
			Inspect: &wire.InspectRequest{TraceID: "c1-t2-a0", TopK: 8}},
		resp: &wire.Response{Status: wire.StatusOK, Inspect: &wire.InspectResponse{Doc: []byte(`{"spans":[]}`)}},
	},
	wire.KindTxStatus: {
		req:  &wire.Request{Kind: wire.KindTxStatus, TxID: "c1-t9-a0"},
		resp: &wire.Response{Status: wire.StatusOK, TxStatus: &wire.TxStatusResponse{State: wire.TxStateCommitted}},
	},
}

// TestChannelDeliversWhatTCPDelivers: a request and a reply of every wire
// kind arrive through the channel network exactly as they arrive through a
// loopback TCPServer/TCPClient pair — equal to what was sent on both sides,
// and never the sender's own message — so in-process tests see what TCP
// delivers.
func TestChannelDeliversWhatTCPDelivers(t *testing.T) {
	if _, err := wire.AppendEnvelope(nil, &wire.Envelope{Req: &wire.Request{Kind: wire.KindTxStatus + 1}}); err == nil {
		t.Fatal("the codec accepts a kind past KindTxStatus: give it an exchange above and move the loop's bound")
	}
	seen := make(chan *wire.Request, 1)
	handler := func(_ context.Context, req *wire.Request) *wire.Response {
		seen <- req
		return parityExchanges[req.Kind].resp
	}
	channel := NewChannelNetwork(ChannelConfig{Seed: 1})
	defer channel.Close()
	channel.Register(0, handler)
	tcp, stop := startTCPPair(t, handler)
	defer stop()

	ctx := context.Background()
	for k := wire.KindRead; k <= wire.KindTxStatus; k++ {
		if _, err := wire.AppendEnvelope(nil, &wire.Envelope{Req: &wire.Request{Kind: k}}); err != nil {
			continue // a retired kind: the codec carries it nowhere
		}
		ex, ok := parityExchanges[k]
		if !ok {
			t.Fatalf("%s has no exchange: a kind was added without transport parity coverage", k)
		}
		for _, tr := range []struct {
			name string
			c    Client
		}{{"channel", channel}, {"tcp", tcp}} {
			resp, err := tr.c.Call(ctx, 0, ex.req)
			if err != nil {
				t.Fatalf("%s over %s: %v", k, tr.name, err)
			}
			got := <-seen
			if got == ex.req || !reflect.DeepEqual(got, ex.req) {
				t.Fatalf("%s over %s: the node got\n  %+v\nwant a copy of\n  %+v", k, tr.name, got, ex.req)
			}
			if resp == ex.resp || !reflect.DeepEqual(resp, ex.resp) {
				t.Fatalf("%s over %s: the client got\n  %+v\nwant a copy of\n  %+v", k, tr.name, resp, ex.resp)
			}
		}
	}
}
