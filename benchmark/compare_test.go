package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		slack  float64
		want   string
	}{
		{"same", steady, []float64{100, 100, 101, 99, 98}, "higher", 0.10, 0, "ok"},
		{"throughput down 5 % inside a 10 % bound", steady, []float64{95, 96, 94, 95, 95}, "higher", 0.10, 0, "ok"},
		{"throughput down 20 %", steady, []float64{80, 81, 79, 80, 82}, "higher", 0.10, 0, "worse"},
		{"throughput up 20 %", steady, []float64{120, 121, 119, 120, 122}, "higher", 0.10, 0, "ok"},
		{"latency up 20 %", steady, []float64{120, 121, 119, 120, 122}, "lower", 0.10, 0, "worse"},
		{"latency down 20 %", steady, []float64{80, 81, 79, 80, 82}, "lower", 0.10, 0, "ok"},
		{"noisy runs cannot tell a 15 % drop", []float64{60, 100, 140, 90, 110}, []float64{50, 85, 120, 80, 95}, "higher", 0.10, 0, "unresolved"},
		{"noisy runs still show a collapse", []float64{60, 100, 140, 90, 110}, []float64{10, 12, 9, 11, 10}, "higher", 0.10, 0, "worse"},
		{"millisecond set-ups under a 0.2 s slack", []float64{0.001, 0.003, 0.002}, []float64{0.004, 0.009, 0.005}, "lower", 0.25, 0.2, "ok"},
		{"a set-up that grew by a second", []float64{0.02, 0.03, 0.02}, []float64{1.0, 1.1, 1.2}, "lower", 0.25, 0.2, "worse"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.better, tc.bound, tc.slack); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// writeSets writes a set file whose every workload reports the given
// commit_tps values (one per set) and steady values elsewhere.
func writeSets(t *testing.T, spec *benchSpec, path string, tps []float64) {
	t.Helper()
	var f setFile
	for i, v := range tps {
		set := benchSet{Seed: int64(i + 1), Workloads: map[string]*workloadResult{}}
		for _, w := range spec.Workloads {
			e2e := map[string]float64{}
			for _, m := range spec.EndToEnd {
				e2e[m.Name] = 10
			}
			e2e["commit_tps"] = v
			set.Workloads[w.Name] = &workloadResult{EndToEnd: e2e}
		}
		f.Sets = append(f.Sets, set)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeSets(t, spec, base, []float64{100, 101, 99})
	writeSets(t, spec, same, []float64{99, 100, 102})
	writeSets(t, spec, slow, []float64{70, 71, 69})

	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, same); err != nil {
		t.Errorf("equal sets refused: %v\n%s", err, out.String())
	}
	rows := len(spec.Workloads) * (len(spec.EndToEnd) + 1) // + failed_ops_ratio
	if got := strings.Count(out.String(), " ok\n"); got != rows {
		t.Errorf("%d ok rows, want one per (workload, metric) = %d:\n%s", got, rows, out.String())
	}
	out.Reset()
	err = compareFiles(&out, spec, base, slow)
	if err == nil {
		t.Errorf("30 %% throughput drop accepted:\n%s", out.String())
	}
	if got := strings.Count(out.String(), " worse\n"); got != len(spec.Workloads) {
		t.Errorf("%d worse rows, want one commit_tps row per workload:\n%s", got, out.String())
	}
	if err := compareFiles(&out, spec, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
