package wal

import (
	"encoding/hex"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
)

// goldenRecords covers every record shape the log writes: the six value tags
// in the v1 layout (formatFixture), then the v2 layout's prepare with writes,
// release and quorum, both decisions, and a prepare that carries nothing.
func goldenRecords() []Record {
	return append(formatFixture(),
		Record{Type: RecordPrepare, TxID: "tx-5",
			Writes: []store.WriteDesc{
				{ID: "acct/1", Value: store.Int64(90), NewVersion: 4, Block: 1},
				{ID: "row/8", Value: store.Tuple{store.String("a"), store.Bytes{1}}, NewVersion: 12, Block: -2},
			},
			Release: []store.ObjectID{"acct/1", "row/8", "acct/3"},
			Quorum:  []quorum.NodeID{0, 2, 5}},
		Record{Type: RecordDecision, TxID: "tx-5", Commit: true},
		Record{Type: RecordDecision, TxID: "tx-6"},
		Record{Type: RecordPrepare, TxID: "tx-7"},
	)
}

// goldenFrames is what AppendRecordFrame writes for goldenRecords, one
// complete frame (length, CRC-32C, payload) each.
var goldenFrames = []string{
	"00000012165eaeaf" + "00010474782d310006616363742f31030153",
	"000000174fe47c5e" + "00010474782d310406616363742f320103056361726f6c",
	"000000152829705f" + "00010474782d320206626c6f622f3907040300ff10",
	"0000001963d70af3" + "00010474782d320106726174652f7802020000000000000440",
	"000000266e67e8a3" + "00010474782d330805726f772f380b0503010203066e65737465640501020000000000002240",
	"000000118d40a092" + "00010474782d340006676f6e652f330500",
	"0000004358e9108b" + "0002010474782d3500000000000206616363742f3101b401040205726f772f3805020301610401010c030306616363742f3105726f772f3806616363742f330300040a",
	"000000108dde672c" + "0002020474782d350000000001000000",
	"000000104934c1bd" + "0002020474782d360000000000000000",
	"000000104103e83f" + "0002010474782d370000000000000000",
}

// goldenSnapshots is what appendSnapshotBody writes for no objects and for
// two.
var goldenSnapshots = []struct {
	objs []store.WriteDesc
	hex  string
}{
	{nil, "000100"},
	{[]store.WriteDesc{
		{ID: "acct/1", Value: store.Int64(100), NewVersion: 1},
		{ID: "row/8", Value: store.Tuple{store.Float64(2.5), nil}, NewVersion: 9, Block: 3},
	}, "00010206616363742f3101c801010005726f772f380502020000000000000440000906"},
}

// TestEncoderBytesArePinned pins what the encoder writes, byte for byte, for
// every record shape and for snapshot bodies: a change to the disk format
// fails here before it reaches a directory an older build wrote.
func TestEncoderBytesArePinned(t *testing.T) {
	for i, rec := range goldenRecords() {
		frame, err := AppendRecordFrame(nil, &rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got := hex.EncodeToString(frame); got != goldenFrames[i] {
			t.Errorf("record %d (%s %s) frame changed:\n got %s\nwant %s", i, rec.Type, rec.TxID, got, goldenFrames[i])
		}
	}
	for i, s := range goldenSnapshots {
		body, err := appendSnapshotBody(nil, s.objs)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if got := hex.EncodeToString(body); got != s.hex {
			t.Errorf("snapshot %d body changed:\n got %s\nwant %s", i, got, s.hex)
		}
	}
}
