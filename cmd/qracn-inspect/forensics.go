package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"qracn/internal/forensics"
	"qracn/internal/transport"
)

// forensicsMain implements `qracn-inspect forensics`: the abort-attribution
// report. It reads either a qracn-bench JSON export (-in) or the debug
// documents of a running cluster (-nodes, over wire.KindInspect), then
// renders per-cause abort counts with attribution coverage, the partial-vs-
// full split, the abort-position histogram over Block index, the hot-key
// conflict ranking, and the controller decision timeline (recompositions
// applied, skipped, and the merges refused with reasons).
func forensicsMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qracn-inspect forensics", flag.ExitOnError)
	in := fs.String("in", "", "read a qracn-bench -json export from this file")
	live := addLiveFlags(fs, "forensic rings")
	topK := fs.Int("top", 10, "hot keys to rank")
	maxEvents := fs.Int("events", 0, "also print the newest N raw abort events (0: none)")
	_ = fs.Parse(args)
	if (*in == "") == (*live.nodes == "") {
		fmt.Fprintln(os.Stderr, "usage: qracn-inspect forensics (-in bench.json | -nodes host:port,...) [-top k] [-events n]")
		return 2
	}

	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %v\n", err)
			return 1
		}
		return renderBenchForensics(out, data, *topK, *maxEvents)
	}

	addrs, err := transport.ParseAddrs(*live.nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qracn-inspect: -nodes: %v\n", err)
		return 2
	}
	doc, err := live.fetch(addrs, "", *topK)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qracn-inspect: fetching forensics: %v\n", err)
		return 1
	}
	snap := doc.Forensics
	if snap.TotalAborts == 0 && snap.TotalRecomposes == 0 && len(snap.HotKeys) == 0 {
		fmt.Fprintln(out, "no forensic events recorded (conflict-free so far, or nodes run -no-forensics)")
		return 0
	}
	renderSnapshot(out, snap, *topK, *maxEvents)
	return 0
}

// renderSnapshot prints the attribution report for one merged snapshot (the
// live-cluster path: events carry their causes, so the per-cause counts come
// from the rings themselves).
func renderSnapshot(out io.Writer, snap forensics.Snapshot, topK, maxEvents int) {
	byCause := map[string]uint64{}
	blocks := [4]uint64{}
	var partial, attributed uint64
	for _, ev := range snap.Aborts {
		byCause[ev.Cause.String()]++
		if ev.Cause != forensics.CauseUnknown {
			attributed++
		}
		if ev.Partial {
			partial++
		}
		switch {
		case ev.BlockIndex <= 0:
			blocks[0]++
		case ev.BlockIndex == 1:
			blocks[1]++
		case ev.BlockIndex == 2:
			blocks[2]++
		default:
			blocks[3]++
		}
	}
	fmt.Fprintf(out, "abort events: %d buffered, %d recorded total\n", len(snap.Aborts), snap.TotalAborts)
	if n := uint64(len(snap.Aborts)); n > 0 {
		fmt.Fprintf(out, "attribution:  %.1f%% carry a concrete cause, %.1f%% partial rollbacks\n",
			100*float64(attributed)/float64(n), 100*float64(partial)/float64(n))
		causes := make([]string, 0, len(byCause))
		for c := range byCause {
			causes = append(causes, c)
		}
		sort.Slice(causes, func(i, j int) bool {
			if byCause[causes[i]] != byCause[causes[j]] {
				return byCause[causes[i]] > byCause[causes[j]]
			}
			return causes[i] < causes[j]
		})
		for _, c := range causes {
			fmt.Fprintf(out, "  %-20s %6d  (%.1f%%)\n", c, byCause[c], 100*float64(byCause[c])/float64(n))
		}
		fmt.Fprintf(out, "block histogram (abort position): b0=%d b1=%d b2=%d b3+=%d\n",
			blocks[0], blocks[1], blocks[2], blocks[3])
	}
	if len(snap.HotKeys) > 0 {
		fmt.Fprintln(out, "hot keys:")
		modes := holderModes(snap.Aborts)
		for i, h := range snap.HotKeys {
			if topK > 0 && i >= topK {
				break
			}
			renderHotKey(out, h.Key, h.Conflicts, modes)
		}
	}
	renderRecomposes(out, snap.Recomposes, snap.TotalRecomposes)
	renderEvents(out, snap.Aborts, maxEvents)
}

// holderTally counts a key's buffered lock conflicts by the mode the
// refusing holder held it in.
type holderTally struct{ shared, exclusive uint64 }

// holderModes splits each key's lock conflicts by holder mode, from the
// witnesses the buffered events carry: a key refused mostly by SHARED
// holders is a read-mostly row whose readers starve a writer, one refused by
// EXCLUSIVE holders is a written hot spot.
func holderModes(evs []forensics.AbortEvent) map[string]holderTally {
	modes := map[string]holderTally{}
	for _, ev := range evs {
		if ev.Key == "" || ev.ConflictingTxID == "" {
			continue
		}
		t := modes[ev.Key]
		if _, shared := forensics.SplitWitness(ev.ConflictingTxID); shared {
			t.shared++
		} else {
			t.exclusive++
		}
		modes[ev.Key] = t
	}
	return modes
}

// renderHotKey prints one hot-key row, with the holder-mode split when the
// buffered events witnessed any holder for the key.
func renderHotKey(out io.Writer, key string, conflicts uint64, modes map[string]holderTally) {
	fmt.Fprintf(out, "  %-30s %d conflicts", key, conflicts)
	if t, ok := modes[key]; ok {
		fmt.Fprintf(out, "  (holders witnessed: %d exclusive, %d shared)", t.exclusive, t.shared)
	}
	fmt.Fprintln(out)
}

// renderRecomposes prints the controller decision timeline.
func renderRecomposes(out io.Writer, recs []forensics.RecomposeEvent, total uint64) {
	if total == 0 && len(recs) == 0 {
		return
	}
	applied := 0
	for _, re := range recs {
		if re.Applied {
			applied++
		}
	}
	fmt.Fprintf(out, "controller decisions: %d buffered (%d applied, %d skipped), %d recorded total\n",
		len(recs), applied, len(recs)-applied, total)
	for _, re := range recs {
		verdict := "skip "
		if re.Applied {
			verdict = "apply"
		}
		fmt.Fprintf(out, "  %s %s [%s] merges=%d reorders=%d", re.At.Format("15:04:05.000"), verdict, re.Trigger, re.Merges, re.Reorders)
		if re.Applied {
			fmt.Fprintf(out, " %s -> %s", re.Before, re.After)
		}
		fmt.Fprintln(out)
		for _, ref := range re.Refusals {
			fmt.Fprintf(out, "        refused merge %d+%d: %s\n", ref.First, ref.Second, ref.Reason)
		}
	}
}

// renderEvents prints the newest raw abort events.
func renderEvents(out io.Writer, evs []forensics.AbortEvent, n int) {
	if n <= 0 || len(evs) == 0 {
		return
	}
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	fmt.Fprintln(out, "newest abort events:")
	for _, ev := range evs {
		kind := "full"
		if ev.Partial {
			kind = "partial"
		}
		fmt.Fprintf(out, "  %s %-7s tx=%s inc=%d block=%d/%d anchor=%d cause=%s",
			ev.At.Format("15:04:05.000"), kind, ev.TxID, ev.Incarnation,
			ev.BlockIndex, ev.BlockCount, ev.UnitAnchorID, ev.Cause)
		if ev.Key != "" {
			fmt.Fprintf(out, " key=%s", ev.Key)
		}
		if ev.ConflictingTxID != "" {
			fmt.Fprintf(out, " conflict=%s", ev.ConflictingTxID)
		}
		fmt.Fprintln(out)
	}
}

// benchForensicsDoc mirrors the subset of the qracn-bench JSON export the
// report reads (the full schema lives in internal/harness/export.go).
type benchForensicsDoc struct {
	Workload string `json:"workload"`
	Series   []struct {
		System        string `json:"system"`
		Commits       uint64 `json:"commits"`
		FullAborts    uint64 `json:"full_aborts"`
		PartialAborts uint64 `json:"partial_aborts"`
		Forensics     *struct {
			ReadValidation uint64    `json:"aborts_read_validation"`
			LockConflict   uint64    `json:"aborts_lock_conflict"`
			CommitRound    uint64    `json:"aborts_commit_round"`
			Deadline       uint64    `json:"aborts_deadline"`
			Overload       uint64    `json:"aborts_overload"`
			BlockHistogram [4]uint64 `json:"block_histogram"`
			PartialRatio   float64   `json:"partial_ratio"`
			AttributionPct float64   `json:"attribution_pct"`
			Recomposes     uint64    `json:"recomposes"`
			Applied        uint64    `json:"recomposes_applied"`
			MergeRefusals  uint64    `json:"merge_refusals"`
			HotKeys        []struct {
				Key       string `json:"key"`
				Conflicts uint64 `json:"conflicts"`
			} `json:"hot_keys"`
			Events []forensics.AbortEvent `json:"events"`
		} `json:"forensics"`
	} `json:"series"`
}

// renderBenchForensics prints the attribution report for every system of
// every figure in a qracn-bench JSON export (a single document or the array
// -json-out writes for multi-figure runs).
func renderBenchForensics(out io.Writer, data []byte, topK, maxEvents int) int {
	var docs []benchForensicsDoc
	var one benchForensicsDoc
	if err := json.Unmarshal(data, &one); err != nil {
		if err2 := json.Unmarshal(data, &docs); err2 != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: not a qracn-bench export: %v\n", err)
			return 1
		}
	} else {
		docs = []benchForensicsDoc{one}
	}
	printed := false
	for _, doc := range docs {
		for _, s := range doc.Series {
			if s.Forensics == nil {
				continue
			}
			printed = true
			f := s.Forensics
			fmt.Fprintf(out, "=== %s / %s ===\n", doc.Workload, s.System)
			total := s.FullAborts + s.PartialAborts
			fmt.Fprintf(out, "commits=%d aborts=%d (partial ratio %.2f, attribution %.1f%%)\n",
				s.Commits, total, f.PartialRatio, f.AttributionPct)
			type row struct {
				name string
				n    uint64
			}
			rows := []row{
				{"read-validation", f.ReadValidation},
				{"lock-conflict", f.LockConflict},
				{"commit-round", f.CommitRound},
				{"deadline", f.Deadline},
				{"overload", f.Overload},
			}
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
			attributed := f.ReadValidation + f.LockConflict + f.CommitRound + f.Deadline + f.Overload
			for _, r := range rows {
				if r.n == 0 {
					continue
				}
				fmt.Fprintf(out, "  %-20s %6d  (%.1f%%)\n", r.name, r.n, 100*float64(r.n)/float64(attributed))
			}
			fmt.Fprintf(out, "block histogram (abort position): b0=%d b1=%d b2=%d b3+=%d\n",
				f.BlockHistogram[0], f.BlockHistogram[1], f.BlockHistogram[2], f.BlockHistogram[3])
			if f.Recomposes > 0 {
				fmt.Fprintf(out, "controller: %d decisions, %d applied, %d merge refusals\n",
					f.Recomposes, f.Applied, f.MergeRefusals)
			}
			modes := holderModes(f.Events)
			for i, h := range f.HotKeys {
				if topK > 0 && i >= topK {
					break
				}
				if i == 0 {
					fmt.Fprintln(out, "hot keys:")
				}
				renderHotKey(out, h.Key, h.Conflicts, modes)
			}
			renderEvents(out, f.Events, maxEvents)
			fmt.Fprintln(out)
		}
	}
	if !printed {
		fmt.Fprintln(out, "export carries no forensics blocks (run qracn-bench without -no-forensics)")
	}
	return 0
}
