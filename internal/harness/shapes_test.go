package harness

import (
	"context"
	"testing"
)

// knownGap is why the read-ahead arm is logged and not asserted: with
// read-ahead QR-ACN's reordering saves no round trip a flat transaction
// pays, so QR-ACN runs within a few per cent of QR-DTM on 4a-4c. The arm
// is asserted once partial rollback reaches the prepare (ROADMAP item 2).
const knownGap = "knownGap: with read-ahead QR-ACN is within a few per cent of QR-DTM on 4a-4c (ROADMAP item 2)"

// afterKickIn is a series' mean throughput over t3-t6, the intervals after
// QR-ACN's first recompositions have taken effect.
func afterKickIn(s *Series) float64 {
	sum := 0.0
	for _, tps := range s.Throughput[2:] {
		sum += tps
	}
	return sum / float64(len(s.Throughput)-2)
}

// TestPaperShapes pins the paper's Figure 4a-4c shape at the zero base with
// reads on demand (the paper's protocol), on the mean over seeds 1 and 2:
// after kick-in QR-ACN commits at least 1.2x what QR-DTM and QR-CN do, and
// its lead over QR-DTM arrives with the recomposition, so at t1 (before any)
// the ratio is at least 0.2 lower. The read-ahead arm is run and logged
// only (knownGap). It takes about 90 s of wall clock and measures
// throughput, so it is skipped under -short and runs as a CI step of its
// own, with no other package sharing the CPU.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4a-4c in all three systems, both read arms, two seeds: about 90 s")
	}
	arms := []struct {
		name            string
		disablePrefetch bool
		gap             string
	}{
		{"on-demand", true, ""},
		{"read-ahead", false, knownGap},
	}
	seeds := []int64{1, 2}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for _, id := range []string{"4a", "4b", "4c"} {
				fig, _ := FigureByID(id)
				var vsDTM, vsCN, atT1 float64
				for _, seed := range seeds {
					res, err := Run(context.Background(), fig.Options(Options{Seed: seed, DisablePrefetch: arm.disablePrefetch}), AllModes)
					if err != nil {
						t.Fatalf("%s seed %d: %v", id, seed, err)
					}
					dtm, cn, acn := res.Series[ModeQRDTM], res.Series[ModeQRCN], res.Series[ModeQRACN]
					d, c, a := afterKickIn(dtm), afterKickIn(cn), afterKickIn(acn)
					t.Logf("%s seed %d after kick-in: QR-DTM %.0f, QR-CN %.0f, QR-ACN %.0f tx/s; t1: QR-DTM %.0f, QR-ACN %.0f",
						id, seed, d, c, a, dtm.Throughput[0], acn.Throughput[0])
					vsDTM += a / d / float64(len(seeds))
					vsCN += a / c / float64(len(seeds))
					atT1 += acn.Throughput[0] / dtm.Throughput[0] / float64(len(seeds))
				}
				t.Logf("%s mean: QR-ACN/QR-DTM %.2f after kick-in, %.2f at t1; QR-ACN/QR-CN %.2f after kick-in", id, vsDTM, atT1, vsCN)
				if arm.gap != "" {
					continue
				}
				if vsDTM < 1.2 || vsCN < 1.2 {
					t.Errorf("%s: QR-ACN after kick-in is %.2fx QR-DTM and %.2fx QR-CN, want both >= 1.2", id, vsDTM, vsCN)
				}
				if atT1 > vsDTM-0.2 {
					t.Errorf("%s: QR-ACN/QR-DTM is %.2f at t1 and %.2f after kick-in; the gain must arrive with the recomposition (t1 at least 0.2 lower)", id, atT1, vsDTM)
				}
			}
			if arm.gap != "" {
				t.Skip(arm.gap)
			}
		})
	}
}
