package main

import (
	"reflect"
	"testing"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/harness"
	"qracn/internal/server"
)

func TestParseModes(t *testing.T) {
	got, err := parseModes("all")
	if err != nil || !reflect.DeepEqual(got, harness.AllModes) {
		t.Fatalf("all: %v %v", got, err)
	}
	got, err = parseModes("dtm,cn,acn,cp")
	if err != nil {
		t.Fatal(err)
	}
	want := []harness.Mode{harness.ModeQRDTM, harness.ModeQRCN, harness.ModeQRACN, harness.ModeQRCP}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if _, err := parseModes("dtm,bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("2,4,16")
	if err != nil || !reflect.DeepEqual(got, []int{2, 4, 16}) {
		t.Fatalf("got %v %v", got, err)
	}
	for _, bad := range []string{"0", "a", "2,-1", "99999999999999999999"} {
		if _, err := parseInts(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestCheckArgs: the arguments that used to fail or be ignored only after
// the runs are refused before the first one.
func TestCheckArgs(t *testing.T) {
	for _, tc := range []struct {
		repeat          int
		sweep, jsonFile string
		ablation        bool
		counts          []int
		ok              bool
	}{
		{1, "", "", false, nil, true},
		{4, "2,4", "", false, []int{2, 4}, true},
		{1, "", "out.json", false, nil, true},
		{1, "", "", true, nil, true},
		{0, "", "", false, nil, false},
		{-3, "", "", false, nil, false},
		{1, "2,x", "", false, nil, false},
		{1, ",", "", false, nil, false},
		{1, "2", "out.json", false, nil, false},
		{1, "", "out.json", true, nil, false},
	} {
		counts, err := checkArgs(tc.repeat, tc.sweep, tc.jsonFile, tc.ablation)
		if (err == nil) != tc.ok || !reflect.DeepEqual(counts, tc.counts) {
			t.Errorf("checkArgs(%d, %q, %q, %v) = %v, %v; want %v, ok=%v",
				tc.repeat, tc.sweep, tc.jsonFile, tc.ablation, counts, err, tc.counts, tc.ok)
		}
	}
}

func TestSplitComma(t *testing.T) {
	if got := splitComma("a,b,,c"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("got %v", got)
	}
	if got := splitComma(""); got != nil {
		t.Fatalf("got %v", got)
	}
}

// TestAddSeriesSumsEveryCounterGroup: -repeat N folds each repetition's
// series into the first, so every counter group must sum — the termination
// counters (Resolution) included.
func TestAddSeriesSumsEveryCounterGroup(t *testing.T) {
	mk := func(n uint64) *harness.Series {
		return &harness.Series{
			Throughput:     []float64{float64(n), 2 * float64(n)},
			Commits:        n,
			DroppedCommits: n,
			Metrics:        dtm.Snapshot{Commits: n, CrossShardCommits: n, Repairs: n},
			WAL:            dtm.WALStats{Appends: n, Fsyncs: n},
			Resolution: server.ResolutionStats{
				InDoubt: n, RecoveredInDoubt: n, CoordinatorDecided: n, PeerCommits: n,
				PeerAborts: n, TTLAborts: n, StatusQueries: n, ResolveForwards: n,
			},
			Admission: server.AdmissionStats{Admitted: n, Shed: n, Expired: n},
			Forensics: forensics.Snapshot{TotalAborts: n, TotalRecomposes: n},
			Shards:    []dtm.ShardCounts{{Commits: n, ParentAborts: n, SubAborts: n}},
		}
	}
	got, want := mk(1), mk(3)
	addSeries(got, mk(2))
	want.CrossShardRatio = 1
	for _, g := range []struct {
		name      string
		got, want any
	}{
		{"Throughput", got.Throughput, want.Throughput},
		{"Commits", got.Commits, want.Commits},
		{"DroppedCommits", got.DroppedCommits, want.DroppedCommits},
		{"Metrics", got.Metrics, want.Metrics},
		{"WAL", got.WAL, want.WAL},
		{"Resolution", got.Resolution, want.Resolution},
		{"Admission", got.Admission, want.Admission},
		{"Forensics", got.Forensics, want.Forensics},
		{"Shards", got.Shards, want.Shards},
		{"CrossShardRatio", got.CrossShardRatio, want.CrossShardRatio},
	} {
		if !reflect.DeepEqual(g.got, g.want) {
			t.Errorf("%s: got %+v, want %+v", g.name, g.got, g.want)
		}
	}
}
