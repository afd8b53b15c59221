package wire

import (
	"bytes"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// The channel transport moves messages between in-process "nodes" without
// serializing them. To preserve the isolation a real network gives —
// no replica may observe another's later mutations — every message is deep
// copied at the node boundary by the Clone methods below.

func cloneReadDescs(in []store.ReadDesc) []store.ReadDesc {
	if in == nil {
		return nil
	}
	out := make([]store.ReadDesc, len(in))
	copy(out, in)
	return out
}

func cloneWriteDescs(in []store.WriteDesc) []store.WriteDesc {
	if in == nil {
		return nil
	}
	out := make([]store.WriteDesc, len(in))
	for i, w := range in {
		out[i] = store.WriteDesc{ID: w.ID, NewVersion: w.NewVersion, Block: w.Block}
		if w.Value != nil {
			out[i].Value = w.Value.CloneValue()
		}
	}
	return out
}

func cloneNodeIDs(in []quorum.NodeID) []quorum.NodeID {
	if in == nil {
		return nil
	}
	out := make([]quorum.NodeID, len(in))
	copy(out, in)
	return out
}

func cloneIDs(in []store.ObjectID) []store.ObjectID {
	if in == nil {
		return nil
	}
	out := make([]store.ObjectID, len(in))
	copy(out, in)
	return out
}

func cloneLevels(in map[store.ObjectID]float64) map[store.ObjectID]float64 {
	if in == nil {
		return nil
	}
	out := make(map[store.ObjectID]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Clone deep-copies the request.
func (r *Request) Clone() *Request {
	if r == nil {
		return nil
	}
	out := &Request{Kind: r.Kind, TxID: r.TxID, TraceID: r.TraceID, SpanID: r.SpanID, Deadline: r.Deadline}
	if r.Read != nil {
		out.Read = &ReadRequest{
			Object:      r.Read.Object,
			Validate:    cloneReadDescs(r.Read.Validate),
			StatsFor:    cloneIDs(r.Read.StatsFor),
			VersionOnly: r.Read.VersionOnly,
		}
	}
	if r.Prepare != nil {
		out.Prepare = &PrepareRequest{
			Reads:  cloneReadDescs(r.Prepare.Reads),
			Writes: cloneWriteDescs(r.Prepare.Writes),
			Quorum: cloneNodeIDs(r.Prepare.Quorum),
		}
	}
	if r.Decision != nil {
		out.Decision = &DecisionRequest{
			Commit:    r.Decision.Commit,
			Forwarded: r.Decision.Forwarded,
			Writes:    cloneWriteDescs(r.Decision.Writes),
			Release:   cloneIDs(r.Decision.Release),
		}
	}
	if r.Sync != nil {
		out.Sync = &SyncRequest{Known: cloneReadDescs(r.Sync.Known)}
	}
	if r.Repair != nil {
		out.Repair = &RepairRequest{Object: r.Repair.Object, Version: r.Repair.Version}
		if r.Repair.Value != nil {
			out.Repair.Value = r.Repair.Value.CloneValue()
		}
	}
	if r.Batch != nil {
		out.Batch = &BatchRequest{Subs: make([]*Request, len(r.Batch.Subs))}
		for i, sub := range r.Batch.Subs {
			out.Batch.Subs[i] = sub.Clone()
		}
	}
	if r.Inspect != nil {
		ir := *r.Inspect
		out.Inspect = &ir
	}
	if r.ShardMap != nil {
		sm := *r.ShardMap
		out.ShardMap = &sm
	}
	return out
}

// Clone deep-copies the response.
func (r *Response) Clone() *Response {
	if r == nil {
		return nil
	}
	out := &Response{Status: r.Status, Detail: r.Detail, ConflictTx: r.ConflictTx}
	if r.Read != nil {
		out.Read = &ReadResponse{
			Version: r.Read.Version,
			Invalid: cloneIDs(r.Read.Invalid),
			Stats:   cloneLevels(r.Read.Stats),
		}
		if r.Read.Value != nil {
			out.Read.Value = r.Read.Value.CloneValue()
		}
	}
	if r.Prepare != nil {
		out.Prepare = &PrepareResponse{
			Vote:    r.Prepare.Vote,
			Invalid: cloneIDs(r.Prepare.Invalid),
			Busy:    cloneIDs(r.Prepare.Busy),
		}
	}
	if r.Sync != nil {
		out.Sync = &SyncResponse{Objects: cloneWriteDescs(r.Sync.Objects)}
	}
	if r.Batch != nil {
		out.Batch = &BatchResponse{Subs: make([]*Response, len(r.Batch.Subs))}
		for i, sub := range r.Batch.Subs {
			out.Batch.Subs[i] = sub.Clone()
		}
	}
	if r.Inspect != nil {
		out.Inspect = &InspectResponse{Doc: bytes.Clone(r.Inspect.Doc)}
	}
	if r.TxStatus != nil {
		ts := *r.TxStatus
		out.TxStatus = &ts
	}
	if r.ShardMap != nil {
		sm := &ShardMapResponse{Version: r.ShardMap.Version, Degree: r.ShardMap.Degree}
		if r.ShardMap.Groups != nil {
			sm.Groups = make([][]quorum.NodeID, len(r.ShardMap.Groups))
			for i, g := range r.ShardMap.Groups {
				sm.Groups[i] = cloneNodeIDs(g)
			}
		}
		out.ShardMap = sm
	}
	return out
}
