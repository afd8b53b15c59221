package dtm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// Inspect fetches the debug document of each given node over
// wire.KindInspect — its spans of one trace (all of them for an empty
// traceID) and its forensic snapshot with the topK hottest keys (0: the
// node's default) — and merges them, nodes in the order given. A node that
// does not answer, or whose answer is not a document, is left out and named
// in the returned error, so a caller may use the rest and still say what is
// missing; the document is nil only when every node failed.
func Inspect(ctx context.Context, client transport.Client, nodes []quorum.NodeID, traceID string, topK int) (*forensics.Document, error) {
	req := &wire.Request{
		Kind:    wire.KindInspect,
		Inspect: &wire.InspectRequest{TraceID: traceID, TopK: topK},
	}
	merged := &forensics.Document{}
	var failed []error
	for _, n := range nodes {
		doc, err := inspectNode(ctx, client, n, req)
		if err != nil {
			failed = append(failed, fmt.Errorf("dtm: inspect node %d: %w", n, err))
			continue
		}
		merged.Merge(doc)
	}
	if len(failed) == len(nodes) && len(nodes) > 0 {
		merged = nil
	}
	return merged, errors.Join(failed...)
}

func inspectNode(ctx context.Context, client transport.Client, n quorum.NodeID, req *wire.Request) (forensics.Document, error) {
	var doc forensics.Document
	resp, err := client.Call(ctx, n, req)
	if err != nil {
		return doc, err
	}
	if resp.Status != wire.StatusOK || resp.Inspect == nil {
		return doc, fmt.Errorf("%s (%s)", resp.Status, resp.Detail)
	}
	if err := json.Unmarshal(resp.Inspect.Doc, &doc); err != nil {
		return doc, fmt.Errorf("answer is not a debug document: %w", err)
	}
	return doc, nil
}

// FetchSpans collects the runtime's own spans plus every given node's spans
// for one trace (empty traceID: everything buffered anywhere). Nodes that
// fail to answer are skipped; the error is non-nil only when every node
// failed.
func (rt *Runtime) FetchSpans(ctx context.Context, nodes []quorum.NodeID, traceID string) ([]trace.Span, error) {
	remote, err := Inspect(ctx, rt.cfg.Client, nodes, traceID, 0)
	if remote == nil {
		return nil, err
	}
	return append(rt.cfg.Tracer.SpansFor(traceID), remote.Spans...), nil
}
