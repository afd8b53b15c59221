package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"qracn/internal/store"
	"qracn/internal/wal"
)

// walMain implements
// `qracn-inspect wal [-records] [-in-doubt] [-strict] <dir-or-segment>...`:
// it scans snapshot and segment files, CRC-verifying every frame, and
// prints record counts plus the maximum committed version per object key.
// The exit status is 0 only if every file verified cleanly — a torn tail, a
// corrupt frame or a file in the pre-binary gob format (reported with its
// path and offset) exits 1, so the command doubles as an integrity check in
// scripts. -in-doubt reports every prepare record with no matching decision
// (the transactions a crashed node would re-enter cooperative termination
// for); with -strict a non-empty in-doubt set also exits 1, so operators can
// refuse to retire a node whose log still holds undecided votes.
//
// A sharded cluster's WAL parent (shard-<s>/node-<id> subdirectories, the
// layout the cluster runtimes write) is accepted directly: every node's log
// is scanned and each shard gets a rollup line with its record count and
// in-doubt total — in-doubt is always reported in
// this mode, and -strict applies to the cross-shard total.
func walMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qracn-inspect wal", flag.ExitOnError)
	records := fs.Bool("records", false, "dump every record (txid, block, key, version)")
	inDoubt := fs.Bool("in-doubt", false, "report prepare records with no matching decision")
	strict := fs.Bool("strict", false, "with -in-doubt, exit non-zero when any transaction is in doubt")
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: qracn-inspect wal [-records] [-in-doubt] [-strict] <wal-dir-or-segment>...")
		return 2
	}

	exit := 0
	for _, path := range fs.Args() {
		doubt, err := inspectWALPath(path, *records, *inDoubt, nil, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %s: %v\n", path, err)
			exit = 1
		}
		if *inDoubt && *strict && doubt > 0 {
			fmt.Fprintf(os.Stderr, "qracn-inspect: %s: %d transactions in doubt\n", path, doubt)
			exit = 1
		}
	}
	return exit
}

// doubtScan accumulates the 2PC state of a log scan: which transaction ids
// voted yes (prepare record seen) and which reached a decision. Order of
// first sight is kept so the report is stable.
type doubtScan struct {
	prepares map[string]*wal.Record
	decided  map[string]bool
	order    []string
}

func newDoubtScan() *doubtScan {
	return &doubtScan{prepares: map[string]*wal.Record{}, decided: map[string]bool{}}
}

func (d *doubtScan) observe(rec *wal.Record) {
	switch rec.Type {
	case wal.RecordPrepare:
		if _, ok := d.prepares[rec.TxID]; !ok {
			cp := *rec
			d.prepares[rec.TxID] = &cp
			d.order = append(d.order, rec.TxID)
		}
	case wal.RecordDecision:
		d.decided[rec.TxID] = rec.Commit
	}
}

// inDoubt returns the prepared-but-undecided transaction ids in first-seen
// order.
func (d *doubtScan) inDoubt() []string {
	var out []string
	for _, tx := range d.order {
		if _, ok := d.decided[tx]; !ok {
			out = append(out, tx)
		}
	}
	return out
}

func (d *doubtScan) report(out io.Writer) int {
	doubt := d.inDoubt()
	if len(doubt) == 0 {
		fmt.Fprintf(out, "in-doubt: none (%d prepares, all decided)\n", len(d.prepares))
		return 0
	}
	fmt.Fprintf(out, "in-doubt: %d of %d prepared transactions have no decision:\n",
		len(doubt), len(d.prepares))
	for _, tx := range doubt {
		rec := d.prepares[tx]
		fmt.Fprintf(out, "  %-32s writes=%d release=%d quorum=%v\n",
			tx, len(rec.Writes), len(rec.Release), rec.Quorum)
	}
	return len(doubt)
}

// inspectWALPath reports one segment file or WAL directory. total, when
// non-nil, is a shard rollup's running record count (and marks path as a
// node directory inside a shard root, not a shard root itself).
func inspectWALPath(path string, dump, reportDoubt bool, total *int, out io.Writer) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if info.IsDir() && total == nil {
		if doubt, ok, err := inspectShardRoot(path, dump, out); ok {
			return doubt, err
		}
	}
	maxVer := map[store.ObjectID]uint64{}
	scan := newDoubtScan()
	var firstErr error
	if !info.IsDir() {
		if err := inspectSegment(path, dump, maxVer, scan, total, out); err != nil {
			firstErr = err
		}
		printMaxVersions(maxVer, out)
		doubt := 0
		if reportDoubt {
			doubt = scan.report(out)
		}
		return doubt, firstErr
	}

	snaps, err := wal.Snapshots(path)
	if err != nil {
		return 0, err
	}
	for _, s := range snaps {
		objs, err := wal.ReadSnapshot(s)
		if err != nil {
			// Includes a snapshot in the legacy format, whose error names
			// the path and offset.
			fmt.Fprintf(out, "%s: UNREADABLE: %v\n", filepath.Base(s), err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(out, "%s: %d objects, crc ok\n", filepath.Base(s), len(objs))
		for _, w := range objs {
			if w.NewVersion > maxVer[w.ID] {
				maxVer[w.ID] = w.NewVersion
			}
		}
	}
	segs, err := wal.Segments(path)
	if err != nil {
		return 0, err
	}
	if len(snaps) == 0 && len(segs) == 0 {
		return 0, fmt.Errorf("no snapshot or segment files")
	}
	for _, s := range segs {
		if err := inspectSegment(s, dump, maxVer, scan, total, out); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	printMaxVersions(maxVer, out)
	doubt := 0
	if reportDoubt {
		doubt = scan.report(out)
	}
	return doubt, firstErr
}

func inspectSegment(path string, dump bool, maxVer map[store.ObjectID]uint64, scan *doubtScan, total *int, out io.Writer) error {
	n, err := wal.ScanSegment(path, func(rec *wal.Record, off int64) error {
		scan.observe(rec)
		if rec.Version > maxVer[rec.Key] {
			maxVer[rec.Key] = rec.Version
		}
		if dump {
			switch rec.Type {
			case wal.RecordPrepare:
				fmt.Fprintf(out, "  %08x prepare tx=%s writes=%d release=%d quorum=%v\n",
					off, rec.TxID, len(rec.Writes), len(rec.Release), rec.Quorum)
			case wal.RecordDecision:
				outcome := "abort"
				if rec.Commit {
					outcome = "commit"
				}
				fmt.Fprintf(out, "  %08x decision tx=%s %s\n", off, rec.TxID, outcome)
			default:
				fmt.Fprintf(out, "  %08x tx=%s block=%d key=%s version=%d\n",
					off, rec.TxID, rec.Block, rec.Key, rec.Version)
			}
		}
		return nil
	})
	if total != nil {
		*total += n
	}
	var torn *wal.TornTailError
	var bad *wal.BadRecordError
	switch {
	case errors.As(err, &torn):
		fmt.Fprintf(out, "%s: %d records, TORN TAIL at offset %d\n", filepath.Base(path), n, torn.Offset)
	case errors.As(err, &bad):
		// The frame's CRC verified — this is not a torn tail but bytes that
		// were durably written wrong (e.g. an out-of-range version byte),
		// which an integrity check must fail loudly on.
		fmt.Fprintf(out, "%s: %d records, BAD RECORD at offset %d: %s\n", filepath.Base(path), n, bad.Offset, bad.Reason)
	case errors.Is(err, wal.ErrLegacyFormat):
		// Intact, but written by a release this build no longer reads; the
		// error carries the path and offset of the first such frame.
		fmt.Fprintf(out, "%s: %d records, LEGACY FORMAT: %v\n", filepath.Base(path), n, err)
	case err != nil:
		fmt.Fprintf(out, "%s: %d records, CORRUPT: %v\n", filepath.Base(path), n, err)
	default:
		fmt.Fprintf(out, "%s: %d records, crc ok\n", filepath.Base(path), n)
	}
	return err
}

// inspectShardRoot handles a sharded cluster's WAL parent: a directory of
// shard-<s> subdirectories each holding node-<id> WAL directories (the
// layout the cluster runtimes write). It reports every node's log and one
// rollup line per shard, and returns ok=false when the directory is not a
// shard root.
func inspectShardRoot(path string, dump bool, out io.Writer) (int, bool, error) {
	shardDirs, err := filepath.Glob(filepath.Join(path, "shard-*"))
	if err != nil || len(shardDirs) == 0 {
		return 0, false, nil
	}
	sortByNumericSuffix(shardDirs)
	totalDoubt := 0
	var firstErr error
	for _, sd := range shardDirs {
		nodeDirs, err := filepath.Glob(filepath.Join(sd, "node-*"))
		if err != nil || len(nodeDirs) == 0 {
			// A shard with no node logs yet is reported, not an error.
			fmt.Fprintf(out, "%s: no node WAL directories\n", filepath.Base(sd))
			continue
		}
		sortByNumericSuffix(nodeDirs)
		records := 0
		shardDoubt := 0
		for _, nd := range nodeDirs {
			fmt.Fprintf(out, "%s/%s:\n", filepath.Base(sd), filepath.Base(nd))
			doubt, err := inspectWALPath(nd, dump, true, &records, out)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			shardDoubt += doubt
		}
		fmt.Fprintf(out, "%s: %d nodes, %d records, %d in doubt\n",
			filepath.Base(sd), len(nodeDirs), records, shardDoubt)
		totalDoubt += shardDoubt
	}
	return totalDoubt, true, firstErr
}

// sortByNumericSuffix orders paths like shard-2 before shard-10 (falling
// back to lexical order for non-numeric suffixes).
func sortByNumericSuffix(paths []string) {
	key := func(p string) (int, bool) {
		base := filepath.Base(p)
		i := strings.LastIndexByte(base, '-')
		if i < 0 {
			return 0, false
		}
		n, err := strconv.Atoi(base[i+1:])
		return n, err == nil
	}
	sort.Slice(paths, func(i, j int) bool {
		ni, iok := key(paths[i])
		nj, jok := key(paths[j])
		if iok && jok {
			return ni != nj && ni < nj || ni == nj && paths[i] < paths[j]
		}
		if iok != jok {
			return iok
		}
		return paths[i] < paths[j]
	})
}

func printMaxVersions(maxVer map[store.ObjectID]uint64, out io.Writer) {
	if len(maxVer) == 0 {
		return
	}
	keys := make([]store.ObjectID, 0, len(maxVer))
	for k := range maxVer {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintf(out, "max committed version per key (%d keys):\n", len(keys))
	for _, k := range keys {
		fmt.Fprintf(out, "  %-24s %d\n", k, maxVer[k])
	}
}
