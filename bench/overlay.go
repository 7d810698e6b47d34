package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xmldb"
)

// overlay is a view of a generated deployment with the ground truth the bench
// keeps to itself: the program under test sees the network, never the
// corrupted set.
//
// The deployment — topology and which mappings are corrupted — is internal/sim's
// generated scenario for the pinned sizes.OverlaySeed, not for -seed: it is the
// dataset. Which structures discovery finds and whether belief propagation
// converges or runs into the round cap depend on it alone; drawn per seed, the
// cold start of the 1000-peer overlay swings from 60 rounds to 300 and the
// 10k-peer one by ±15%, which would bury the changes the bench exists to
// show. Everything that arrives at the overlay — store contents, key streams,
// which answers are judged, verdict noise — derives from -seed.
type overlay struct {
	net       *core.Network
	attrs     []schema.Attribute
	peers     []graph.PeerID
	edges     []graph.EdgeID
	swap      map[schema.Attribute]schema.Attribute
	corrupted map[graph.EdgeID]bool
}

// scenario generates the deployment with internal/sim: a Barabási–Albert
// overlay of identity mappings of which a Corrupt share swaps a0 and a1, and —
// on closed_loop only — a churn script of Events events in each of the first
// ChurnEpochs epochs and none after. With churn in every epoch each
// publication is a full rebuild and nothing is ever revalidated; the quiet
// epochs are where delta publication and cache revalidation show.
func (sz sizes) scenario() (sim.Scenario, error) {
	events := sz.Events
	if events == 0 {
		events = -1 // GenConfig's spelling of a static scenario
	}
	sc, err := sim.Generate(sim.GenConfig{
		Seed: sz.OverlaySeed, Peers: sz.Peers, Attach: sz.Attach, Attrs: sz.Attrs, Corrupt: sz.Corrupt,
		Epochs: sz.Epochs, Events: events,
	})
	if err != nil {
		return sc, err
	}
	sc.MaxLen, sc.Delta, sc.Theta, sc.MaxRounds = sz.MaxLen, sz.Delta, sz.Theta, sz.MaxRounds
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
		if i >= sz.ChurnEpochs {
			sc.Epochs[i].Events = nil
		}
	}
	return sc, nil
}

// viewOf reads a simulation's network and ground truth into the bench's
// overlay. The ground truth is read once: a view of a simulation that churns
// is taken after it has finished.
func viewOf(s *sim.Simulation) *overlay {
	ov := &overlay{
		net:       s.Network(),
		attrs:     s.Attributes(),
		swap:      map[schema.Attribute]schema.Attribute{},
		corrupted: map[graph.EdgeID]bool{},
	}
	for _, p := range s.Network().Peers() {
		ov.peers = append(ov.peers, p.ID())
	}
	sort.Slice(ov.peers, func(i, j int) bool { return ov.peers[i] < ov.peers[j] })
	for _, a := range ov.attrs {
		ov.swap[a] = a
	}
	ov.swap[ov.attrs[0]], ov.swap[ov.attrs[1]] = ov.attrs[1], ov.attrs[0]
	for _, e := range s.Network().Topology().Edges() {
		ov.edges = append(ov.edges, e.ID)
		if s.Corrupted(e.ID) {
			ov.corrupted[e.ID] = true
		}
	}
	return ov
}

// attachStores gives every peer its seeded document store.
func (ov *overlay) attachStores(sz sizes, seed int64) error {
	for _, id := range ov.peers {
		peer, _ := ov.net.Peer(id)
		st, err := seededStore(peer.Schema(), ov.attrs, id, sz, seed)
		if err != nil {
			return err
		}
		if err := peer.AttachStore(st); err != nil {
			return err
		}
	}
	return nil
}

// seededStore fills one peer's store; the contents depend on the seed and the
// peer name only.
func seededStore(sch *schema.Schema, attrs []schema.Attribute, p graph.PeerID, sz sizes, seed int64) (*xmldb.Store, error) {
	st, err := xmldb.NewStore(sch)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(p))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ seed*1_000_003))
	for i := 0; i < sz.Records; i++ {
		rec := make(xmldb.Record, len(attrs))
		for _, a := range attrs {
			rec[a] = []string{fmt.Sprintf("%s %s r%d", literal(rng.Intn(sz.Vocab)), p, i)}
		}
		if err := st.Insert(rec); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func literal(i int) string { return fmt.Sprintf("w%02d", i) }

// posteriorError is the mean |posterior − ground truth| on the analysis
// attribute over the mappings detection covered: corrupted mappings should
// post 0 and clean ones 1.
func (ov *overlay) posteriorError(det core.DetectResult) float64 {
	sum, n := 0.0, 0
	for _, id := range ov.edges {
		p := det.Posterior(id, ov.attrs[0], -1)
		if p < 0 {
			continue
		}
		truth := 1.0
		if ov.corrupted[id] {
			truth = 0
		}
		sum += math.Abs(p - truth)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// verdict is the client-side oracle: follow every attribute the query named
// through the chain's corrupted swaps; a displaced image means the records
// that came over this path hold values of the wrong concept.
func (ov *overlay) verdict(attrs []schema.Attribute, via []graph.EdgeID) xmldb.Verdict {
	for _, a := range attrs {
		cur := a
		for _, e := range via {
			if ov.corrupted[e] {
				cur = ov.swap[cur]
			}
		}
		if cur != a {
			return xmldb.VerdictContradict
		}
	}
	return xmldb.VerdictConfirm
}

// judge rates every contributing path of an answer, flipping each verdict
// with probability noise, and enqueues the verdicts on the server.
func (ov *overlay) judge(srv *serve.Server, ans serve.Answer, noise float64, rng *rand.Rand) {
	for _, p := range ans.Paths {
		if p.Records == 0 || len(p.Via) == 0 {
			continue
		}
		v := ov.verdict(ans.Attrs, p.Via)
		if rng.Float64() < noise {
			if v == xmldb.VerdictConfirm {
				v = xmldb.VerdictContradict
			} else {
				v = xmldb.VerdictConfirm
			}
		}
		srv.FeedbackPath(ans, p.Peer, v)
	}
}

// key is one (origin, query) pair of the key universe.
type key struct {
	origin graph.PeerID
	q      query.Query
}

// keyUniverse enumerates the keys over the first `origins` peers and the first
// `attrs` attributes: per (origin, attribute) one pure projection and, per
// literal, one selection and one selection-with-projection.
func (ov *overlay) keyUniverse(origins, attrs, literals int) []key {
	var keys []key
	for _, p := range ov.peers[:origins] {
		peer, _ := ov.net.Peer(p)
		sch := peer.Schema()
		for _, a := range ov.attrs[:attrs] {
			keys = append(keys, key{p, query.MustNew(sch, query.Op{Kind: query.Project, Attr: a})})
			for l := 0; l < literals; l++ {
				sel := query.Op{Kind: query.Select, Attr: a, Literal: literal(l)}
				keys = append(keys,
					key{p, query.MustNew(sch, sel)},
					key{p, query.MustNew(sch, sel, query.Op{Kind: query.Project, Attr: a})})
			}
		}
	}
	return keys
}

// stream is one client's pre-generated request sequence: indices into hot (a
// prefix of the universe's hot keys) with probability hotShare, else into all.
type stream struct {
	keys []key
	idx  []uint32
}

// genStreams draws one stream of n requests per client. The hot keys come
// first in the combined key slice so an index alone names the key.
func (ov *overlay) genStreams(sz sizes, seed int64, n int) []stream {
	hot := ov.keyUniverse(min(sz.HotOrigins, len(ov.peers)), 1, min(4, sz.Vocab))
	if sz.HotShare == 0 {
		hot = nil
	}
	keys := append(hot, ov.keyUniverse(len(ov.peers), len(ov.attrs), sz.Vocab)...)
	out := make([]stream, sz.Clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		idx := make([]uint32, n/sz.Clients)
		for i := range idx {
			if rng.Float64() < sz.HotShare {
				idx[i] = uint32(rng.Intn(len(hot)))
			} else {
				idx[i] = uint32(len(hot) + rng.Intn(len(keys)-len(hot)))
			}
		}
		out[c] = stream{keys, idx}
	}
	return out
}

// replayWork is what one outside replay did: the counts always, the time in
// each layer when a tracer is recording.
type replayWork struct {
	visits, records                int
	route, rewrite, execute, merge time.Duration
}

// replay answers one key from outside the serve layer, straight through the
// exported functions of the layers below it, and returns the canonical bytes
// the serve layer must produce for the same key and snapshot.
func replay(snap *core.RoutingSnapshot, k key, tr *tracer) ([]byte, replayWork, error) {
	var w replayWork
	id := tr.begin("core.route")
	route, err := snap.RouteQuery(k.origin, k.q)
	w.route = tr.end(id)
	if err != nil {
		return nil, w, err
	}
	w.visits = len(route.Visits)
	var merged []xmldb.Record
	for _, v := range route.Visits {
		st, ok := snap.Store(v.Peer)
		if !ok {
			continue
		}
		chain := make([]*schema.Mapping, 0, len(v.Via))
		for _, eid := range v.Via {
			m, ok := snap.Mapping(eid)
			if !ok {
				return nil, w, fmt.Errorf("route to %s crosses unknown mapping %s", v.Peer, eid)
			}
			chain = append(chain, m)
		}
		id = tr.begin("query.rewrite")
		rewritten, dropped := k.q.RewriteChain(chain...)
		w.rewrite += tr.end(id)
		if len(dropped) > 0 {
			return nil, w, fmt.Errorf("route to %s dropped %v", v.Peer, dropped)
		}
		id = tr.begin("xmldb.execute")
		recs, err := st.Execute(rewritten)
		w.execute += tr.end(id)
		if err != nil {
			return nil, w, err
		}
		merged = append(merged, recs...)
	}
	id = tr.begin("serve.merge")
	out := serve.CanonicalBytes(merged)
	w.merge = tr.end(id)
	w.records = bytes.Count(out, []byte{'\n'})
	return out, w, nil
}
