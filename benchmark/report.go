package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// print writes the run in human-readable form: every metric by name with its
// unit, the sample count behind the latencies, and the run's notes.
func (r *runResult) print(w io.Writer) {
	state := "correct"
	if !r.correct {
		state = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s seed %d: %d calls, %d failed, %s, n=%d latency samples\n",
		r.workload, r.seed, r.attempted, r.failed, state, r.samples)
	for _, d := range r.metrics.decls {
		if v, ok := r.metrics.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, v.Value, d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// setFile is what `benchmark -sets N -out FILE` writes and -compare reads:
// N sets, each one run of every workload, plus the host they ran on.
type setFile struct {
	Host    hostInfo   `json:"host"`
	Seconds float64    `json:"seconds"`
	Sets    []benchSet `json:"sets"`
}

type benchSet struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd       map[string]float64 `json:"end_to_end"`
	FailedOpsRatio float64            `json:"failed_ops_ratio"`
	PerLayer       map[string]float64 `json:"per_layer"`
}

// hostInfo records the facts a reader needs to place the numbers.
type hostInfo struct {
	NProc       int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	WALFsType   string  `json:"wal_filesystem"`
	WALAppendMS float64 `json:"wal_append_ms_serial"`
}

func hostFacts(walDir string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), WALFsType: "unknown"}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(walDir, &fs); err == nil {
		h.WALFsType = fmt.Sprintf("0x%x", uint64(fs.Type))
	}
	return h
}

// series gathers one end-to-end metric's values across a file's sets.
func (f *setFile) series(workload, metric string) []float64 {
	var vals []float64
	for _, s := range f.Sets {
		if w := s.Workloads[workload]; w != nil {
			if v, ok := w.EndToEnd[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	return vals
}

// summarize prints each end-to-end metric's median, quartiles and spread
// across the sets, and flags a spread wider than the metric's bound.
func (f *setFile) summarize(w io.Writer, spec *benchSpec) {
	fmt.Fprintf(w, "\n%d set(s) on %d CPUs, %s, WAL filesystem %s\n", len(f.Sets), f.Host.NProc, f.Host.GoVersion, f.Host.WALFsType)
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vals := f.series(wl.Name, m.Name)
			q1, q3 := quartiles(vals)
			flag := ""
			if spread(vals) > m.Bound {
				flag = "  spread exceeds bound"
			}
			fmt.Fprintf(w, "%-18s %-20s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, median(vals), q1, q3, 100*spread(vals), 100*m.Bound, flag)
		}
	}
}

// verdict compares one metric's two series under its bound.
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is, and by more than the runs' own spread
//	unresolved  the spread is wider than the bound, so the runs cannot tell
//
// worsening is the share of a's median by which b is worse (negative: better).
// slack is an absolute amount, in the metric's unit, below which neither a
// worsening nor a spread counts (0: none).
func verdict(a, b []float64, better string, bound, slack float64) (v string, worsening, spr float64) {
	ma, mb := median(a), median(b)
	worsening = ratio(mb-ma, ma)
	if better == "higher" {
		worsening = -worsening
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	if slack > 0 && math.Abs(mb-ma) <= slack && spr*math.Max(ma, mb) <= slack {
		return "ok", worsening, spr
	}
	switch {
	case spr > bound && worsening <= spr:
		return "unresolved", worsening, spr
	case worsening > bound:
		return "worse", worsening, spr
	default:
		return "ok", worsening, spr
	}
}

// setupSlack is the issue's "25 % or +0.2 s" for setup_s: set-up lasts 1–25
// ms here and its relative spread is wide (the driver exempts it from the
// spread rule for the same reason), so a change only counts once it also
// exceeds 0.2 s.
const setupSlack = 0.2

// failedOpsBound is the absolute rise in failed_ops_ratio that counts as a
// regression. The ratio is 0 on a healthy run, so it has no relative bound
// (and for the same reason is not among BENCHMARK.json's end-to-end metrics,
// which must never read 0).
const failedOpsBound = 0.001

func readSetFile(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, metric) with both medians and a
// verdict, and fails when any row is worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readSetFile(pathA)
	if err != nil {
		return err
	}
	b, err := readSetFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%d sets)   b: %s (%d sets)\n", pathA, len(a.Sets), pathB, len(b.Sets))
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.series(wl.Name, m.Name), b.series(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s: missing from one of the files", wl.Name, m.Name)
			}
			slack := 0.0
			if m.Name == "setup_s" {
				slack = setupSlack
			}
			v, worsening, spr := verdict(va, vb, m.Better, m.Bound, slack)
			counts[v]++
			fmt.Fprintf(w, "%-18s %-20s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worsening, 100*spr, 100*m.Bound, v)
		}
		fa, fb := failedRatios(a, wl.Name), failedRatios(b, wl.Name)
		v := "ok"
		if median(fb)-median(fa) > failedOpsBound {
			v = "worse"
		}
		counts[v]++
		fmt.Fprintf(w, "%-18s %-20s %12.4f %12.4f %+9.4f %8s %6.3f  %s\n",
			wl.Name, "failed_ops_ratio", median(fa), median(fb), median(fb)-median(fa), "", failedOpsBound, v)
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%d %s  ", counts[k], k)
	}
	fmt.Fprintln(w)
	if counts["worse"] > 0 {
		return fmt.Errorf("%d row(s) worse than the bound allows", counts["worse"])
	}
	return nil
}

func failedRatios(f *setFile, workload string) []float64 {
	var vals []float64
	for _, s := range f.Sets {
		if w := s.Workloads[workload]; w != nil {
			vals = append(vals, w.FailedOpsRatio)
		}
	}
	return vals
}
