package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/workload/bank"
)

// smallOptions is a fast experiment for unit testing the harness machinery.
func smallOptions() Options {
	return Options{
		Workload:         bank.New(bank.Config{Branches: 4, Accounts: 50, WritePct: 90}),
		Servers:          4,
		Clients:          2,
		ThreadsPerClient: 2,
		Intervals:        3,
		IntervalLength:   80 * time.Millisecond,
		PhaseSchedule:    []int{0, 1},
		Seed:             7,
	}
}

func TestRunAllModes(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(), AllModes)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllModes {
		s := res.Series[m]
		if s == nil {
			t.Fatalf("missing series for %s", m)
		}
		if len(s.Throughput) != 3 {
			t.Fatalf("%s throughput has %d intervals", m, len(s.Throughput))
		}
		if s.Commits == 0 {
			t.Fatalf("%s committed nothing", m)
		}
		if s.Metrics.Commits < s.Commits {
			t.Fatalf("%s runtime metrics (%d) inconsistent with meter (%d)",
				m, s.Metrics.Commits, s.Commits)
		}
	}
	// Flat nesting must never record partial aborts.
	if res.Series[ModeQRDTM].Metrics.SubAborts != 0 {
		t.Fatal("QR-DTM recorded partial aborts")
	}
}

func TestRunMissingWorkload(t *testing.T) {
	_, err := Run(context.Background(), Options{}, []Mode{ModeQRDTM})
	if err == nil || !strings.Contains(err.Error(), "Workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOptions()
	opts.IntervalLength = time.Second
	start := time.Now()
	_, err := Run(ctx, opts, []Mode{ModeQRDTM})
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancelled run took too long to stop")
	}
}

func TestReportHelpers(t *testing.T) {
	res := &Result{
		Options: Options{PhaseSchedule: []int{0, 1}},
		Series: map[Mode]*Series{
			ModeQRDTM: {Mode: ModeQRDTM, Throughput: []float64{100, 100, 100}},
			ModeQRCN:  {Mode: ModeQRCN, Throughput: []float64{110, 110, 110}},
			ModeQRACN: {Mode: ModeQRACN, Throughput: []float64{90, 150, 153}},
		},
	}
	if got := res.Improvement(ModeQRACN, ModeQRDTM, 1); got != 50 {
		t.Fatalf("Improvement = %v, want 50", got)
	}
	peak, at := res.PeakImprovement(ModeQRACN, ModeQRDTM)
	if peak != 53 || at != 2 {
		t.Fatalf("Peak = %v at %d", peak, at)
	}
	if got := res.SteadyImprovement(ModeQRACN, ModeQRDTM); got != 53 {
		t.Fatalf("Steady = %v", got)
	}
	table := res.Table()
	for _, want := range []string{"QR-DTM", "QR-CN", "QR-ACN", "t1", "ph1"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	if s := res.Summary(); !strings.Contains(s, "QR-ACN vs QR-DTM") {
		t.Fatalf("summary:\n%s", s)
	}
	// Degenerate inputs.
	if res.Improvement(ModeQRACN, ModeQRDTM, 99) != 0 {
		t.Fatal("out-of-range interval should give 0")
	}
	empty := &Result{Series: map[Mode]*Series{}}
	if p, at := empty.PeakImprovement(ModeQRACN, ModeQRDTM); p != 0 || at != -1 {
		t.Fatal("empty result should report no peak")
	}
	if empty.SteadyImprovement(ModeQRACN, ModeQRDTM) != 0 {
		t.Fatal("empty steady should be 0")
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 6 {
		t.Fatalf("figures = %d, want 6 (panels 4a-4f)", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		opts := f.Options(Options{})
		if opts.Workload == nil || opts.Intervals == 0 {
			t.Fatalf("figure %s builds incomplete options", f.ID)
		}
	}
	for _, id := range []string{"4a", "4b", "4c", "4d", "4e", "4f"} {
		if !ids[id] {
			t.Fatalf("missing figure %s", id)
		}
	}
	if _, ok := FigureByID("4e"); !ok {
		t.Fatal("FigureByID failed")
	}
	if _, ok := FigureByID("9z"); ok {
		t.Fatal("FigureByID matched nonsense")
	}
}

// TestFigureParity pins every panel's experiment to what the deleted
// harness.Scale produced: the literals below are Figure.Options(DefaultScale())
// after fillDefaults as printed at commit 53be850 (every field not listed was
// zero there), and the workload fingerprints — name, seed-object count, phase
// count and an FNV-1a hash of the first 200 draws — were taken from the same
// commit.
func TestFigureParity(t *testing.T) {
	want := map[string]struct {
		phases   []int
		workload string
		seeded   int
		nphases  int
		draws    uint64
	}{
		"4a": {nil, "tpcc", 289, 1, 0x169959ab15614c9a},
		"4b": {nil, "tpcc", 289, 1, 0x9f2c93eee06da4ae},
		"4c": {nil, "tpcc", 289, 1, 0x7e86735e72022897},
		"4d": {nil, "tpcc", 1384, 1, 0xca381566d7bd32e9},
		"4e": {[]int{0, 1, 1, 2, 2, 2}, "vacation", 1400, 3, 0xcf9363ded96c1fc0},
		"4f": {[]int{0, 1, 1, 0, 0, 0}, "bank", 1050, 2, 0x2797d28cc6d08b5b},
	}
	for _, f := range Figures() {
		exp, ok := want[f.ID]
		if !ok {
			t.Fatalf("figure %s has no parent literal", f.ID)
		}
		got := f.Options(Options{})
		got.fillDefaults()
		w := got.Workload
		got.Workload = nil
		wantOpts := Options{
			Servers:          10,
			Clients:          8,
			ThreadsPerClient: 2,
			Intervals:        6,
			IntervalLength:   400 * time.Millisecond,
			PhaseSchedule:    exp.phases,
			NetLatency:       60 * time.Microsecond,
			NetJitter:        30 * time.Microsecond,
			Seed:             1,
			Client:           dtm.Config{StatsEveryNReads: 16},
		}
		if !reflect.DeepEqual(got, wantOpts) {
			t.Errorf("figure %s options drifted from the parent:\n got %+v\nwant %+v", f.ID, got, wantOpts)
		}
		h := fnv.New64a()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			p, params := w.Generate(rng, i%w.Phases())
			fmt.Fprint(h, p, params)
		}
		if w.Name() != exp.workload || len(w.SeedObjects()) != exp.seeded || w.Phases() != exp.nphases || h.Sum64() != exp.draws {
			t.Errorf("figure %s workload drifted: %s seed=%d phases=%d draws=%#x", f.ID, w.Name(), len(w.SeedObjects()), w.Phases(), h.Sum64())
		}
	}
}

func TestPhaseFor(t *testing.T) {
	o := Options{PhaseSchedule: []int{0, 1, 2}}
	if o.phaseFor(0) != 0 || o.phaseFor(2) != 2 || o.phaseFor(9) != 2 {
		t.Fatal("phaseFor wrong")
	}
	var empty Options
	if empty.phaseFor(3) != 0 {
		t.Fatal("empty schedule should be phase 0")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeQRDTM.String() != "QR-DTM" || ModeQRCN.String() != "QR-CN" || ModeQRACN.String() != "QR-ACN" {
		t.Fatal("mode strings wrong")
	}
}

func TestRunCheckpointMode(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(), []Mode{ModeQRCP})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[ModeQRCP]
	if s == nil || s.Commits == 0 {
		t.Fatalf("QR-CP measured nothing: %+v", s)
	}
	// Checkpointing never uses closed nesting.
	if s.Metrics.SubAborts != 0 {
		t.Fatal("QR-CP recorded sub-transaction aborts")
	}
	if !strings.Contains(res.Table(), "QR-CP") {
		t.Fatal("table missing QR-CP column")
	}
	if ModeQRCP.String() != "QR-CP" {
		t.Fatal("mode string")
	}
}

func TestRunWithFaultSchedule(t *testing.T) {
	opts := smallOptions()
	opts.Servers = 10
	opts.Intervals = 3
	// The lease must be short relative to the intervals: a node killed
	// mid-commit returns with stale protections, and throughput only
	// recovers once they expire.
	opts.ProtectTTL = opts.IntervalLength / 4
	// A leaf node dies before interval 2 and returns before interval 3.
	opts.Faults = []FaultEvent{
		{Interval: 1, Node: 9, Down: true},
		{Interval: 2, Node: 9, Down: false},
	}
	res, err := Run(context.Background(), opts, []Mode{ModeQRDTM})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[ModeQRDTM]
	// The cluster must keep committing in every interval despite the fault.
	for i, tp := range s.Throughput {
		if tp == 0 {
			t.Fatalf("interval %d measured zero throughput under leaf failure: %v", i+1, s.Throughput)
		}
	}
}

func TestRunSurvivesUnavailableWrites(t *testing.T) {
	// Killing the root makes write quorums unavailable; the harness must
	// still terminate cleanly (workers ride out the fault) and recover once
	// the root returns.
	opts := smallOptions()
	opts.Servers = 4
	opts.Intervals = 3
	opts.ProtectTTL = opts.IntervalLength / 4
	opts.Faults = []FaultEvent{
		{Interval: 1, Node: 0, Down: true},
		{Interval: 2, Node: 0, Down: false},
	}
	res, err := Run(context.Background(), opts, []Mode{ModeQRDTM})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[ModeQRDTM]
	if s.Throughput[0] == 0 {
		t.Fatal("no throughput before the fault")
	}
	if s.Throughput[2] == 0 {
		t.Fatal("no recovery after the root returned")
	}
}

func TestSweepClients(t *testing.T) {
	opts := smallOptions()
	opts.Intervals = 2
	sr, err := SweepClients(context.Background(), opts, []Mode{ModeQRDTM}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 || sr.Clients[0] != 1 || sr.Clients[1] != 3 {
		t.Fatalf("sweep shape wrong: %+v", sr.Clients)
	}
	for i, res := range sr.Results {
		if res.Series[ModeQRDTM].Commits == 0 {
			t.Fatalf("sweep point %d measured nothing", i)
		}
	}
	table := sr.Table()
	if !strings.Contains(table, "clients") || !strings.Contains(table, "QR-DTM") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestSweepValidation(t *testing.T) {
	opts := smallOptions()
	if _, err := SweepClients(context.Background(), opts, AllModes, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := SweepClients(context.Background(), opts, AllModes, []int{0}); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestRunCollectsForensics(t *testing.T) {
	// High write contention on few accounts: the run must abort often enough
	// to exercise attribution end to end.
	opts := smallOptions()
	opts.Workload = bank.New(bank.Config{Branches: 2, Accounts: 8, WritePct: 90})
	res, err := Run(context.Background(), opts, []Mode{ModeQRDTM, ModeQRACN})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{ModeQRDTM, ModeQRACN} {
		s := res.Series[m]
		mm := &s.Metrics
		total := mm.ParentAborts + mm.SubAborts
		if total == 0 {
			t.Fatalf("%s: contended run recorded no aborts", m)
		}
		attributed := mm.AbortsReadValidation + mm.AbortsLockConflict +
			mm.AbortsCommitRound + mm.AbortsDeadline + mm.AbortsOverload
		if attributed == 0 {
			t.Fatalf("%s: %d aborts, none attributed to a cause", m, total)
		}
		if s.Forensics.TotalAborts == 0 || len(s.Forensics.Aborts) == 0 {
			t.Fatalf("%s: abort events missing from the merged snapshot", m)
		}
		if len(s.Forensics.HotKeys) == 0 {
			t.Fatalf("%s: no hot keys despite %d aborts", m, total)
		}
	}
	// The ACN series must audit its controller refreshes (applied or not).
	if res.Series[ModeQRACN].Forensics.TotalRecomposes == 0 {
		t.Fatal("QR-ACN run recorded no controller decisions")
	}

	data, err := res.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"forensics"`, `"aborts_read_validation"`, `"block_histogram"`, `"partial_ratio"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("export missing %s", want)
		}
	}
	if s := res.Summary(); !strings.Contains(s, "forensics:") {
		t.Fatalf("summary missing forensics line:\n%s", s)
	}
	table := res.AbortRatioTable()
	for _, want := range []string{"partial-ratio", "dominant-cause", "QR-DTM", "QR-ACN"} {
		if !strings.Contains(table, want) {
			t.Fatalf("abort ratio table missing %q:\n%s", want, table)
		}
	}

	// NoForensics keeps the pipeline silent but the run working.
	opts.Node.NoForensics = true
	res2, err := Run(context.Background(), opts, []Mode{ModeQRDTM})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res2.Series[ModeQRDTM].Forensics.Aborts); n != 0 {
		t.Fatalf("NoForensics run still buffered %d events", n)
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	res, err := Run(context.Background(), smallOptions(), []Mode{ModeQRDTM, ModeQRACN})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload": "bank"`, `"QR-DTM"`, `"QR-ACN"`, `"throughput_tx_per_s"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("export missing %s:\n%s", want, data)
		}
	}
	tp, err := ParseExportedThroughput(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp["QR-DTM"]) != 3 || len(tp["QR-ACN"]) != 3 {
		t.Fatalf("parsed throughput = %v", tp)
	}
	if tp["QR-DTM"][0] != res.Series[ModeQRDTM].Throughput[0] {
		t.Fatal("throughput round trip mismatch")
	}
	if _, err := ParseExportedThroughput([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}
