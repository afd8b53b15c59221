package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// running is what the config-reach test needs of either runtime.
type running struct {
	*deployment
	runtime func(int, dtm.Config) *dtm.Runtime
	close   func()
}

// constructors builds the same Config over each transport.
var constructors = []struct {
	name  string
	build func(Config) (running, error)
}{
	{"NewDurable", func(cfg Config) (running, error) {
		c, err := NewDurable(cfg)
		if err != nil {
			return running{}, err
		}
		return running{&c.deployment, c.Runtime, c.Close}, nil
	}},
	{"NewTCP", func(cfg Config) (running, error) {
		c, err := NewTCP(cfg)
		if err != nil {
			return running{}, err
		}
		return running{&c.deployment, c.Runtime, c.Close}, nil
	}},
}

// ringLen fills a recorder past any small ring and reports how many events
// it kept — the ring size it was built with.
func ringLen(r *forensics.Recorder) int {
	for i := 0; i < 64; i++ {
		r.RecordAbort(forensics.AbortEvent{TxID: fmt.Sprint(i)})
	}
	return len(r.Aborts())
}

// TestNodeTemplateReachesEveryNode pins the one path a tunable takes from
// Config to the nodes and to client runtimes, on both transports: the TCP
// runtime once dropped the forensics and tracing settings on the way.
func TestNodeTemplateReachesEveryNode(t *testing.T) {
	const (
		ring = 8
		ttl  = 40 * time.Millisecond
	)
	for _, ctor := range constructors {
		t.Run(ctor.name, func(t *testing.T) {
			c, err := ctor.build(Config{
				Servers:       4,
				StatsWindow:   time.Hour,
				WALDir:        t.TempDir(),
				FsyncInterval: -1,
				TraceCapacity: 16,
				Node: server.Config{
					ForensicsRing: ring,
					MaxInflight:   3,
					SnapshotEvery: 2,
					TTLAbortAfter: ttl,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			tracers := map[any]bool{}
			for _, n := range c.Nodes {
				if got := ringLen(n.Forensics()); got != ring {
					t.Errorf("node %d: forensics ring holds %d events, want Node.ForensicsRing = %d", n.ID(), got, ring)
				}
				if !n.Tracer().Enabled() {
					t.Errorf("node %d: no tracer despite TraceCapacity", n.ID())
				}
				tracers[n.Tracer()] = true

				// Three logged repair pushes, each through the admission gate
				// (so a gate exists), then a commit decision — the request
				// that checks the SnapshotEvery threshold the pushes crossed.
				before := n.WAL().Stats().Snapshots
				for v := uint64(1); v <= 3; v++ {
					resp := n.Handle(context.Background(), &wire.Request{
						Kind:   wire.KindRepair,
						Repair: &wire.RepairRequest{Object: "k", Value: store.Int64(int64(v)), Version: v},
					})
					if resp.Status != wire.StatusOK {
						t.Fatalf("node %d: repair push: %v %s", n.ID(), resp.Status, resp.Detail)
					}
				}
				resp := n.Handle(context.Background(), &wire.Request{
					Kind: wire.KindDecision,
					TxID: "t",
					Decision: &wire.DecisionRequest{
						Commit: true,
						Writes: []store.WriteDesc{{ID: "k", Value: store.Int64(4), NewVersion: 4}},
					},
				})
				if resp.Status != wire.StatusOK {
					t.Fatalf("node %d: commit decision: %v %s", n.ID(), resp.Status, resp.Detail)
				}
				if got := n.AdmissionStats().Admitted; got != 3 {
					t.Errorf("node %d: admission gate admitted %d, want 3 (Node.MaxInflight not applied)", n.ID(), got)
				}
				// The checkpoint runs in the background: wait for it.
				for deadline := time.Now().Add(10 * time.Second); n.WAL().Stats().Snapshots == before; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Errorf("node %d: no checkpoint after 5 records (Node.SnapshotEvery = 2 not applied)", n.ID())
						break
					}
				}
			}
			if len(tracers) != len(c.Nodes) {
				t.Errorf("%d tracers for %d nodes: each node needs its own ring", len(tracers), len(c.Nodes))
			}

			// Runtime: the cluster's ring size is inherited, a caller's own
			// is kept, and the decide budget ends below the TTL abort.
			if got := ringLen(c.runtime(1, dtm.Config{}).Forensics()); got != ring {
				t.Errorf("runtime forensics ring holds %d events, want the cluster's %d", got, ring)
			}
			if got := ringLen(c.runtime(2, dtm.Config{ForensicsRing: 2}).Forensics()); got != 2 {
				t.Errorf("runtime forensics ring holds %d events, want the caller's 2", got)
			}
			// The effective budget is private to dtm.Runtime; both Runtime
			// methods take it from runtimeConfig.
			if got := c.runtimeConfig(3, dtm.Config{DecideTimeout: time.Hour}).DecideTimeout; got >= ttl {
				t.Errorf("DecideTimeout %v not clamped below TTLAbortAfter %v", got, ttl)
			}
		})

		t.Run(ctor.name+"/NoForensics", func(t *testing.T) {
			c, err := ctor.build(Config{Servers: 4, StatsWindow: time.Hour, Node: server.Config{NoForensics: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			for _, n := range c.Nodes {
				if n.Forensics() != nil {
					t.Errorf("node %d records forensics despite Node.NoForensics", n.ID())
				}
				if n.Tracer().Enabled() {
					t.Errorf("node %d traces without TraceCapacity", n.ID())
				}
			}
			if c.runtime(1, dtm.Config{}).Forensics() != nil {
				t.Error("runtime records forensics despite the cluster's Node.NoForensics")
			}
		})
	}
}
