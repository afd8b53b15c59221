package main

import (
	"bytes"
	"strings"
	"testing"

	"qracn/internal/forensics"
)

// TestHotKeysCarryHolderMode: the hot-key table splits each key's witnessed
// conflicts by the mode the refusing holder held it in, read from the
// witnesses of the buffered events; a key nobody witnessed a holder for
// (validation conflicts) gets no split.
func TestHotKeysCarryHolderMode(t *testing.T) {
	lock := func(key, holder string, shared bool) forensics.AbortEvent {
		return forensics.AbortEvent{Key: key, Cause: forensics.CauseLockConflict,
			ConflictingTxID: forensics.Witness(holder, shared)}
	}
	snap := forensics.Snapshot{
		Aborts: []forensics.AbortEvent{
			lock("warehouse/0", "c1-t1-a0", true),
			lock("warehouse/0", "c1-t2-a0", true),
			lock("warehouse/0", "c2-t1-a0", false),
			lock("district/0/1", "c2-t4-a1", false),
			{Key: "stock/0/7", Cause: forensics.CauseReadValidation},
		},
		HotKeys: []forensics.HotKeyEvent{
			{Key: "warehouse/0", Conflicts: 3}, {Key: "district/0/1", Conflicts: 1}, {Key: "stock/0/7", Conflicts: 1},
		},
		TotalAborts: 5,
	}
	var out bytes.Buffer
	renderSnapshot(&out, snap, 10, 0)
	for key, want := range map[string]string{
		"warehouse/0":  "3 conflicts  (holders witnessed: 1 exclusive, 2 shared)",
		"district/0/1": "1 conflicts  (holders witnessed: 1 exclusive, 0 shared)",
		"stock/0/7":    "1 conflicts\n",
	} {
		line := ""
		for _, l := range strings.SplitAfter(out.String(), "\n") {
			if strings.Contains(l, key) {
				line = l
			}
		}
		if !strings.Contains(line, want) {
			t.Errorf("hot-key row for %s = %q, want it to contain %q", key, line, want)
		}
	}
}
