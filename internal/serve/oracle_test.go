package serve_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xmldb"
)

// TestSnapshotSerialDifferentialOracle is the correctness oracle of the
// serving plane: across 50 generated churn scenarios, every answer the
// concurrent snapshot-serving path produces must byte-equal (after
// canonical ordering) the answer computed by a fresh single-threaded
// reference walk (sim.ReferenceRoute: hop-by-hop θ decisions and rewrites
// over the live network) + Execute at every visited peer at the same epoch,
// with identical θ-gate accounting. The workload engine's
// Observer hook delivers every answer together with the epoch's detection
// result, and the serial walk runs inside it — the epochs are barriered, so
// the live network is quiescent while the clients and the oracle read it.
func TestSnapshotSerialDifferentialOracle(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 12
	}
	for seed := 1; seed <= seeds; seed++ {
		sc, err := sim.Generate(sim.GenConfig{Seed: int64(seed), Peers: 10, Epochs: 2, Events: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range sc.Epochs {
			sc.Epochs[i].Queries = 0 // the workload serves the queries
		}
		s, err := sim.New(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		net := s.Network()

		var checked atomic.Int64
		obs := func(epoch int, det core.DetectResult, origin graph.PeerID, q query.Query, ans serve.Answer) {
			live, err := sim.ReferenceRoute(net, det, net.Snapshot().Options(), origin, q)
			if err != nil {
				t.Errorf("seed %d epoch %d: serial walk %s from %s: %v", seed, epoch, q, origin, err)
				return
			}
			if len(live.Visits) != ans.Peers || live.Blocked != ans.Blocked || live.DroppedAttr != ans.DroppedAttr {
				t.Errorf("seed %d epoch %d: %s from %s: served (peers %d blocked %d dropped %d) vs serial (%d, %d, %d)",
					seed, epoch, q, origin, ans.Peers, ans.Blocked, ans.DroppedAttr,
					len(live.Visits), live.Blocked, live.DroppedAttr)
				return
			}
			var recs []xmldb.Record
			for _, v := range live.Visits {
				p, _ := net.Peer(v.Peer)
				st, ok := p.Store()
				if !ok {
					continue
				}
				out, err := st.Execute(v.Query)
				if err != nil {
					t.Errorf("seed %d epoch %d: executing %s at %s: %v", seed, epoch, v.Query, v.Peer, err)
					return
				}
				recs = append(recs, out...)
			}
			want := serve.CanonicalBytes(recs)
			got := serve.CanonicalBytes(ans.Records)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d epoch %d: %s from %s: served answer diverges from the serial walk:\n got %q\nwant %q",
					seed, epoch, q, origin, got, want)
			}
			checked.Add(1)
		}
		if _, _, err := s.RunWorkload(sim.Workload{Clients: 4, QueriesPerEpoch: 60, CacheSize: -1}, obs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if checked.Load() == 0 {
			t.Fatalf("seed %d: oracle never ran", seed)
		}
	}
}
