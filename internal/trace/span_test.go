package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func mkSpan(trace string, id, parent uint64, name, site string, start, dur int) Span {
	t0 := time.Unix(0, 1_000_000)
	return Span{
		Trace: trace, ID: id, Parent: parent, Name: name, Site: site,
		Start: t0.Add(time.Duration(start) * time.Microsecond),
		End:   t0.Add(time.Duration(start+dur) * time.Microsecond),
	}
}

func TestSpanRingWraps(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.RecordSpan(mkSpan("t", uint64(i+1), 0, "s", "site", i, 1))
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("spans = %d, want 4", len(got))
	}
	// Oldest first: IDs 4,5,6,7.
	for i, s := range got {
		if want := uint64(i + 4); s.ID != want {
			t.Fatalf("span %d ID = %d, want %d", i, s.ID, want)
		}
	}
}

func TestRecordSpanNilAndDisabled(t *testing.T) {
	var nilTr *Tracer
	nilTr.RecordSpan(Span{}) // must not panic
	if got := nilTr.Spans(); got != nil {
		t.Fatalf("nil tracer spans = %v", got)
	}
}

func TestAssembleTrace(t *testing.T) {
	spans := []Span{
		mkSpan("tr1", 1, 0, "tx", "client", 0, 100),
		mkSpan("tr1", 2, 1, "attempt-0", "client", 1, 98),
		mkSpan("tr1", 3, 2, "block-0", "client", 2, 50),
		mkSpan("tr1", 4, 3, "try-0", "client", 3, 20),
		mkSpan("tr1", 5, 3, "try-1", "client", 25, 20),
		mkSpan("tr1", 6, 4, "serve-read", "node-0", 5, 4),
		mkSpan("tr2", 7, 0, "tx", "client", 0, 10),
	}
	ids := TraceIDs(spans)
	if len(ids) != 2 || ids[0] != "tr1" || ids[1] != "tr2" {
		t.Fatalf("TraceIDs = %v", ids)
	}
	roots := AssembleTrace(spans, "tr1")
	if len(roots) != 1 || roots[0].Name != "tx" {
		t.Fatalf("roots = %v", roots)
	}
	block := roots[0].Find("block-0")
	if block == nil {
		t.Fatal("block-0 not found")
	}
	if len(block.Children) != 2 {
		t.Fatalf("block children = %d, want 2 tries", len(block.Children))
	}
	if block.Children[0].Name != "try-0" || block.Children[1].Name != "try-1" {
		t.Fatalf("tries out of order: %s, %s", block.Children[0].Name, block.Children[1].Name)
	}
	if srv := roots[0].Find("serve-read"); srv == nil || srv.Parent != 4 {
		t.Fatalf("server span not nested under try-0: %v", srv)
	}
}

func TestAssembleTraceOrphanBecomesRoot(t *testing.T) {
	spans := []Span{
		mkSpan("tr", 2, 99, "orphan", "node", 0, 1), // parent 99 absent
	}
	roots := AssembleTrace(spans, "tr")
	if len(roots) != 1 || roots[0].Name != "orphan" {
		t.Fatalf("orphan not promoted to root: %v", roots)
	}
}

func TestChromeTraceValid(t *testing.T) {
	spans := []Span{
		mkSpan("tr1", 1, 0, "tx", "client", 0, 100),
		mkSpan("tr1", 2, 1, "serve-read", "node-0", 5, 4),
	}
	data, err := ChromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2", complete)
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata events")
	}
}

func TestChromeTraceRejectsMalformed(t *testing.T) {
	bad := []Span{
		{Trace: "", Name: "x", Site: "s", Start: time.Unix(0, 1), End: time.Unix(0, 2)},
	}
	if _, err := ChromeTrace(bad); err == nil {
		t.Fatal("missing trace ID accepted")
	}
	rev := mkSpan("tr", 1, 0, "x", "s", 10, 5)
	rev.End = rev.Start.Add(-time.Second)
	if _, err := ChromeTrace([]Span{rev}); err == nil {
		t.Fatal("end-before-start accepted")
	}
}

func TestTimeline(t *testing.T) {
	spans := []Span{
		mkSpan("tr1", 1, 0, "tx", "client", 0, 100),
		mkSpan("tr1", 2, 1, "block-0", "client", 2, 50),
	}
	out := Timeline(spans)
	if !strings.Contains(out, "trace tr1") || !strings.Contains(out, "block-0") {
		t.Fatalf("timeline missing content:\n%s", out)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := []Span{
		mkSpan("tr1", 1, 0, "tx", "client", 0, 100),
		mkSpan("tr1", 2, 1, "commit", "client", 50, 40),
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost spans: %d != %d", len(out), len(in))
	}
	for i := range in {
		if !out[i].Start.Equal(in[i].Start) || out[i].ID != in[i].ID || out[i].Trace != in[i].Trace {
			t.Fatalf("span %d mismatch: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestNextSpanIDUnique(t *testing.T) {
	a, b := NextSpanID(), NextSpanID()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("NextSpanID returned %d, %d", a, b)
	}
}
