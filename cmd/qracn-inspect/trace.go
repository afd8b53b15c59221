package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/trace"
	"qracn/internal/transport"
)

// liveFlags are the flags of a subcommand that can read a running cluster:
// the trace and forensics reports are two views of the one debug document
// every node serves, so they share the parse, the client and the fetch.
type liveFlags struct {
	nodes    *string
	compress *bool
}

// addLiveFlags registers -nodes and -compress on fs; what names the part of
// the document the subcommand renders.
func addLiveFlags(fs *flag.FlagSet, what string) liveFlags {
	return liveFlags{
		nodes:    fs.String("nodes", "", "comma-separated node addresses to drain "+what+" from, tree order"),
		compress: fs.Bool("compress", false, "flate-compress large frames when fetching from -nodes"),
	}
}

// fetch merges the debug documents of the nodes at addrs (the parsed -nodes
// list). Nodes that could not be read are named on stderr and left out; it
// fails only when none answered.
func (l liveFlags) fetch(addrs map[quorum.NodeID]string, traceID string, topK int) (*forensics.Document, error) {
	nodes := make([]quorum.NodeID, len(addrs))
	for i := range nodes {
		nodes[i] = quorum.NodeID(i)
	}
	client := transport.NewTCPClient(addrs, *l.compress)
	defer client.Close()
	doc, err := dtm.Inspect(context.Background(), client, nodes, traceID, topK)
	if doc == nil {
		return nil, err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qracn-inspect: skipped: %v\n", err)
	}
	return doc, nil
}

// traceMain implements `qracn-inspect trace`: it loads spans either from a
// JSON file written by qracn-client -spans-out (-in) or live from a running
// cluster's span rings (-nodes), optionally filters to one trace ID, and
// renders them as a plain-text timeline and/or a Chrome trace_event JSON
// file loadable in chrome://tracing or Perfetto. Malformed spans (missing
// trace ID, name or site, or negative duration) make the export fail and
// the command exit non-zero, so it doubles as a validity check in scripts.
func traceMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qracn-inspect trace", flag.ExitOnError)
	in := fs.String("in", "", "read spans from this JSON file (qracn-client -spans-out format)")
	live := addLiveFlags(fs, "spans")
	traceID := fs.String("trace", "", "only this trace ID (empty: all)")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this file ('-' for stdout)")
	timeline := fs.Bool("timeline", false, "print the plain-text span timeline (default when -chrome is not given)")
	_ = fs.Parse(args)
	if (*in == "") == (*live.nodes == "") {
		fmt.Fprintln(os.Stderr, "usage: qracn-inspect trace (-in spans.json | -nodes host:port,...) [-trace id] [-chrome out.json] [-timeline]")
		return 2
	}

	var spans []trace.Span
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %v\n", err)
			return 1
		}
		spans, err = trace.ReadSpans(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %s: %v\n", *in, err)
			return 1
		}
		if *traceID != "" {
			kept := spans[:0]
			for _, s := range spans {
				if s.Trace == *traceID {
					kept = append(kept, s)
				}
			}
			spans = kept
		}
	default:
		addrs, err := transport.ParseAddrs(*live.nodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: -nodes: %v\n", err)
			return 2
		}
		doc, err := live.fetch(addrs, *traceID, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: fetching spans: %v\n", err)
			return 1
		}
		spans = doc.Spans
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "qracn-inspect: no spans (is tracing on? was the transaction sampled?)")
		return 1
	}

	if *chrome != "" {
		data, err := trace.ChromeTrace(spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %v\n", err)
			return 1
		}
		if *chrome == "-" {
			fmt.Fprintln(out, string(data))
		} else if err := os.WriteFile(*chrome, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %v\n", err)
			return 1
		} else {
			fmt.Fprintf(out, "%d spans (%d traces) written to %s\n",
				len(spans), len(trace.TraceIDs(spans)), *chrome)
		}
	}
	if *timeline || *chrome == "" {
		if err := trace.ValidateSpans(spans); err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %v\n", err)
			return 1
		}
		fmt.Fprint(out, trace.Timeline(spans))
	}
	return 0
}
