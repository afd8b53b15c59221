package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the contract this program is held to:
// which workloads exist, which metric names a run must print, their units,
// and how far each end-to-end metric may worsen before a change is refused.
// The program reads it instead of repeating the names, so the two cannot
// drift apart: a run that emits a name the file lacks, or misses one it has,
// fails.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot locates the checkout root (the directory holding BENCHMARK.json)
// from the working directory: the root itself when started by the committed
// command, its parent when started with `go run -C benchmark .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one printed metric, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values one run emits under the names of one
// BENCHMARK.json section. set refuses unknown and repeated names; missing
// lists what the run failed to emit.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
	errs   []string
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metricValue, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.values[name]; dup {
		m.errs = append(m.errs, "metric emitted twice: "+name)
		return
	}
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	m.errs = append(m.errs, "metric not in BENCHMARK.json: "+name)
}

// check reports every departure from the declared name list.
func (m *metricSet) check() error {
	errs := append([]string(nil), m.errs...)
	for _, d := range m.decls {
		if _, ok := m.values[d.Name]; !ok {
			errs = append(errs, "metric not emitted: "+d.Name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("metric set does not match BENCHMARK.json: %v", errs)
}
