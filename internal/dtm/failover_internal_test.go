package dtm

import (
	"context"
	"errors"
	"testing"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// TestFailoverRuleSkipsMembersNotAsked: a result with neither a reply nor an
// error is a member the round did not ask. The rule must not exclude it from
// the next selection — only the member that did fail — and must leave it
// looking not asked to the tallies that follow.
func TestFailoverRuleSkipsMembersNotAsked(t *testing.T) {
	down := errors.New("down")
	yes := &wire.Response{Status: wire.StatusOK, Prepare: &wire.PrepareResponse{Vote: true}}
	fo := (&Runtime{}).failover(context.Background(), nil, 0, wire.KindPrepare, "write quorum")

	results := []callResult{{node: 0, resp: yes}, {node: 1}, {node: 2}}
	if fo.failed(results) || len(fo.excl) != 0 {
		t.Fatalf("a round with one yes and two members not asked failed, excluding %v", fo.excl)
	}
	results[2].err = down
	if !fo.failed(results) || len(fo.excl) != 1 || !fo.excl[2] || !errors.Is(fo.lastErr, down) {
		t.Fatalf("excluded %v with last error %v; want node 2 alone, failed by its own error", fo.excl, fo.lastErr)
	}
	if yesVotes, no := tallyVotes(results); yesVotes != 1 || len(no.busy)+len(no.invalid) != 0 {
		t.Fatalf("tally of one yes, one not asked, one failed: %d yes, refusal %+v", yesVotes, no)
	}
}

// TestTallyVotesNamesEachRefusedKeyOnce: a parallel prepare round that every
// member refuses on the same key names that key once, stale or protected, so
// whatever acts on the refusal acts on each object once.
func TestTallyVotesNamesEachRefusedKeyOnce(t *testing.T) {
	for _, busy := range []bool{false, true} {
		var results []callResult
		for n := 0; n < 7; n++ {
			p := &wire.PrepareResponse{Invalid: []store.ObjectID{"k"}}
			if busy {
				p = &wire.PrepareResponse{Busy: []store.ObjectID{"k"}}
			}
			results = append(results, callResult{node: quorum.NodeID(n), resp: &wire.Response{Status: wire.StatusOK, Prepare: p}})
		}
		yes, no := tallyVotes(results)
		ae := no.abort("commit", false)
		if yes != 0 || ae == nil || len(ae.Invalid) != 1 || ae.Busy != busy {
			t.Fatalf("busy=%v: %d yes, abort %+v; want none, and one key named", busy, yes, ae)
		}
	}
}
