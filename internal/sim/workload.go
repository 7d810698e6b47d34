package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

// This file is the client side of the epoch driver (driver.go): N client
// goroutines hammer a serve.Server with mixed query templates under hot-key
// skew while the scenario's churn timeline advances between query phases.
// Each epoch is a barrier: churn, discovery and detection run
// single-threaded, a fresh RoutingSnapshot is published, and only then do the
// clients serve that epoch's queries concurrently. Because every client draws
// its own query stream from the seed and the cache coalesces concurrent
// misses per key, the aggregate trace — answers served, cache hits (while the
// cache holds an epoch's distinct keys, see CacheSize), per-epoch answer
// digests, invariant violations — is deterministic however the goroutines
// interleave, which is what the cmd/pdmssim load goldens pin down.
// Wall-clock latency and throughput are reported separately (WorkloadPerf)
// and are, of course, not deterministic.

// Workload parameterizes the client side of a load run.
type Workload struct {
	// Seed drives store contents and every client's query stream. 0 uses
	// the scenario seed.
	Seed int64 `json:"seed,omitempty"`
	// Clients is the number of concurrent serving clients (default 4).
	Clients int `json:"clients,omitempty"`
	// QueriesPerEpoch is the total number of queries served per epoch,
	// spread across the clients (default 1000).
	QueriesPerEpoch int `json:"queriesPerEpoch,omitempty"`
	// Hot is the fraction of traffic drawn from the hot key set (default
	// 0.8; pass a negative value for an all-cold workload — 0 means
	// unset): hot queries use the first HotKeys live peers as origins, the
	// analysis attribute and a 4-literal vocabulary, giving the cache its
	// skew.
	Hot float64 `json:"hot,omitempty"`
	// HotKeys is the size of the hot origin set (default 16).
	HotKeys int `json:"hotKeys,omitempty"`
	// QPS caps aggregate client throughput (0 = unlimited).
	QPS int `json:"qps,omitempty"`
	// CacheSize is the server's LRU capacity (default 1<<16). The budget is
	// global across the cache's shards, so golden-pinned traces only need
	// CacheSize at or above the distinct-key count per epoch — whatever the
	// key skew — to keep cache-hit counts eviction-free and deterministic.
	// Below it, the cacheHits/revalidated/computed split of each epoch
	// depends on the interleaving; the rest of the trace does not.
	CacheSize int `json:"cacheSize,omitempty"`
	// Feedback closes the loop: after each epoch's serving phase the
	// clients' ground-truth verdicts on their answers are ingested as
	// evidence, a bounded incremental re-detection runs, and an
	// epoch-bumped snapshot is republished — the serve → evidence → BP →
	// snapshot → serve cycle of the paper, §3.2/§4.
	Feedback bool `json:"feedback,omitempty"`
	// FeedbackNoise is the probability the ground-truth oracle flips a
	// verdict (a user confirming a wrong answer or rejecting a right one).
	// It is also passed to evidence ingestion as the assumed verdict error
	// rate. Must stay below 0.5. Unset, it inherits Scenario.FeedbackNoise;
	// a run has one noise, so two different non-zero values are rejected.
	FeedbackNoise float64 `json:"feedbackNoise,omitempty"`
	// FeedbackRate is the fraction of served answers the clients judge
	// (default 1 — every answer). Real users rate a sliver of their
	// queries; at large scale a few percent is plenty of evidence and keeps
	// the observation volume (answers × contributing paths) bounded.
	FeedbackRate float64 `json:"feedbackRate,omitempty"`
	// FeedbackMaxRounds bounds the incremental re-detection of the feedback
	// phase (default: the scenario's MaxRounds). Feedback posteriors are
	// refreshed every epoch anyway, so on very large networks a tight round
	// budget trades a sliver of per-epoch accuracy for keeping the barrier
	// short next to the serving phase.
	FeedbackMaxRounds int `json:"feedbackMaxRounds,omitempty"`
	// Records is the number of documents seeded into every peer's store
	// (default 4) and Vocab the value vocabulary size (default 8).
	Records int `json:"records,omitempty"`
	Vocab   int `json:"vocab,omitempty"`
	// FullPublish forces every snapshot publication of the run to rebuild
	// from scratch (SnapshotOptions.ForceFull), disabling delta publication
	// and with it cache revalidation. It is the reference side of the
	// revalidation differential oracle, which runs the same spec with and
	// without it and requires byte-identical answer digests; a spec cannot
	// set it.
	FullPublish bool `json:"-"`
	// Pipeline overlaps the feedback refresh with serving instead of
	// running it as a barrier: each epoch's serving phase splits at a
	// deterministic point in every client's query stream, the observations
	// collected so far are drained and handed to a background goroutine
	// (ingest → incremental re-detect), and the clients keep serving the
	// rest of the epoch from the current snapshot while it runs. The engine
	// joins the job at the epoch barrier, folds in the tail observations,
	// and publishes the refreshed snapshot — so the detection barrier hides
	// behind the second serving sub-phase's wall clock. Because the drain
	// point, the served snapshot and the ingested batches are all
	// deterministic, the trace stays bit-reproducible and the served
	// answers byte-match barrier mode at every epoch; only the refresh's
	// wall-clock placement moves. Requires Feedback. After the last epoch a
	// final drain re-detects the remaining tail (Result.FinalRefresh),
	// which pins the run's final posteriors to barrier mode within 1e-6.
	Pipeline bool `json:"pipeline,omitempty"`
}

// pipelineSplit is the fraction of each client's epoch quota served before a
// pipelined refresh launches: earlier starts refresh on fewer observations
// but hide more of the barrier.
const pipelineSplit = 0.5

func (w Workload) withDefaults(sc Scenario) Workload {
	if w.Seed == 0 {
		w.Seed = sc.Seed
	}
	if w.FeedbackNoise == 0 {
		w.FeedbackNoise = sc.FeedbackNoise
	}
	if w.Clients == 0 {
		w.Clients = 4
	}
	if w.QueriesPerEpoch == 0 {
		w.QueriesPerEpoch = 1000
	}
	if w.Hot == 0 {
		w.Hot = 0.8
	} else if w.Hot < 0 {
		w.Hot = 0
	}
	if w.HotKeys == 0 {
		w.HotKeys = 16
	}
	if w.CacheSize == 0 {
		w.CacheSize = 1 << 16
	}
	if w.Records == 0 {
		w.Records = 4
	}
	if w.Vocab == 0 {
		w.Vocab = 8
	}
	if w.FeedbackRate == 0 {
		w.FeedbackRate = 1
	}
	return w
}

// Check reports whether a load spec of sc and w would run: sc as New checks
// it, and w as RunWorkload checks it against sc.
func (w Workload) Check(sc Scenario) error {
	if err := sc.withDefaults().check(); err != nil {
		return err
	}
	return w.withDefaults(sc).check(sc)
}

func (w Workload) check(sc Scenario) error {
	if w.Clients < 1 {
		return fmt.Errorf("sim: workload needs at least one client, got %d", w.Clients)
	}
	if w.QueriesPerEpoch < 0 {
		return fmt.Errorf("sim: negative queriesPerEpoch")
	}
	if !(0 <= w.Hot && w.Hot <= 1) {
		return fmt.Errorf("sim: hot fraction %v out of [0,1]", w.Hot)
	}
	if w.HotKeys < 0 {
		return fmt.Errorf("sim: negative hotKeys")
	}
	if w.QPS < 0 {
		return fmt.Errorf("sim: negative qps")
	}
	if w.Records < 1 || w.Vocab < 1 {
		return fmt.Errorf("sim: workload needs at least one record and one vocabulary entry")
	}
	if w.Vocab > 100 {
		return fmt.Errorf("sim: vocab %d too large (literals are two digits)", w.Vocab)
	}
	if !(0 <= w.FeedbackNoise && w.FeedbackNoise < 0.5) {
		return fmt.Errorf("sim: feedback noise %v out of [0,0.5)", w.FeedbackNoise)
	}
	if sc.FeedbackNoise != 0 && w.FeedbackNoise != sc.FeedbackNoise {
		return fmt.Errorf("sim: workload feedback noise %v differs from the scenario's %v", w.FeedbackNoise, sc.FeedbackNoise)
	}
	if !(0 <= w.FeedbackRate && w.FeedbackRate <= 1) {
		return fmt.Errorf("sim: feedback rate %v out of [0,1]", w.FeedbackRate)
	}
	if w.FeedbackMaxRounds < 0 {
		return fmt.Errorf("sim: negative feedbackMaxRounds")
	}
	if w.Pipeline && !w.Feedback {
		return fmt.Errorf("sim: pipeline requires feedback (there is no refresh to overlap)")
	}
	return nil
}

// splitmix64 is the 64-bit finalizer of the SplitMix64 generator — a strong
// mixing function, so seeds derived from nearby inputs share no structure.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clientSeed derives the per-(epoch, client) RNG seed by hashing the inputs
// through chained splitmix64 steps, so no two (epoch, client) pairs share a
// query stream.
func clientSeed(seed int64, epoch, client int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(epoch))
	h = splitmix64(h ^ uint64(client))
	return int64(h)
}

// LoadSpec is a complete, declarative, reproducible load experiment: a churn
// scenario plus the workload that serves queries against it.
type LoadSpec struct {
	Scenario Scenario `json:"scenario"`
	Workload Workload `json:"workload"`
}

// ParseLoadSpec decodes a load spec from JSON, rejecting unknown fields.
func ParseLoadSpec(data []byte) (LoadSpec, error) { return parseStrict[LoadSpec](data, "load spec") }

// WorkloadResult is the name bench/ reads a load run's Result under.
type WorkloadResult = Result

// WorkloadPerf carries the wall-clock side of a run — everything that is
// real but not reproducible.
type WorkloadPerf struct {
	Elapsed    time.Duration
	Served     int
	Throughput float64 // answers per second, over the whole run
	// ServeElapsed is the wall time spent inside the concurrent client
	// phases only — excluding the per-epoch detection barrier and feedback
	// ingestion. ServeThroughput is answers per second over that window:
	// the rate the serve plane itself sustains, which is where cache
	// cold-starts (and their absence under delta publication) show up.
	ServeElapsed    time.Duration
	ServeThroughput float64
	// FeedbackWait is the wall time the engine stalled on feedback work
	// between serving phases: the whole drain → ingest → detect → publish
	// barrier in barrier mode, but only the join-and-tail remainder in
	// pipelined mode — the difference is the barrier cost the pipeline hid
	// behind the second serving sub-phase.
	FeedbackWait time.Duration
	// Work sums the deterministic detect-work counters over every feedback
	// refresh of the run (including the pipelined final drain).
	Work core.DetectWork
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Max  time.Duration
}

// Observer, if non-nil, receives every served answer (concurrently, from
// the client goroutines) together with the epoch's detection result — the
// hook the snapshot/serial differential oracle uses.
type Observer func(epoch int, det core.DetectResult, origin graph.PeerID, q query.Query, ans serve.Answer)

// RunWorkload replays the scenario's epochs and serves the workload's query
// stream against each epoch's published snapshot with concurrent clients.
// The returned Result depends only on the spec; WorkloadPerf holds the
// wall-clock measurements.
func (s *Simulation) RunWorkload(w Workload, obs Observer) (*Result, *WorkloadPerf, error) {
	w = w.withDefaults(s.sc)
	if err := w.check(s.sc); err != nil {
		return nil, nil, err
	}
	return s.drive(w, obs)
}

// workloadClient is one client's persistent per-epoch state. It outlives the
// serving goroutines so the pipelined engine can split an epoch into two
// sub-phases — the RNG positions, the digest chain and the latency log carry
// across the split, which is why a split run draws the exact query stream
// and produces the exact digest of an unsplit one.
type workloadClient struct {
	rng             *rand.Rand
	fbRng           *rand.Rand
	h               hash.Hash
	line            []byte // reused digest-line buffer; same bytes Fprintf produced
	visits, records int
	lats            []time.Duration
}

// serve draws and answers n queries, advancing the client's state.
func (cl *workloadClient) serve(s *Simulation, w Workload, srv *serve.Server, snap *core.RoutingSnapshot,
	det core.DetectResult, obs Observer, epoch, n int, live []string, hot int, interval time.Duration) {
	for qi := 0; qi < n; qi++ {
		origin, qry := s.drawQuery(cl.rng, w, live, hot, snap)
		t0 := time.Now()
		ans, err := srv.Answer(origin, qry)
		cl.lats = append(cl.lats, time.Since(t0))
		if err != nil {
			fmt.Fprintf(cl.h, "err|%s|%s|%v\n", origin, qry, err)
			continue
		}
		cl.line = append(cl.line[:0], "ans|"...)
		cl.line = append(cl.line, origin...)
		cl.line = append(cl.line, '|')
		cl.line = qry.AppendTo(cl.line)
		cl.line = append(cl.line, '|')
		cl.line = strconv.AppendUint(cl.line, ans.Epoch, 10)
		cl.line = append(cl.line, '|')
		cl.line = append(cl.line, ans.Fingerprint()...)
		cl.line = append(cl.line, '\n')
		cl.h.Write(cl.line)
		cl.visits += ans.Peers
		cl.records += len(ans.Records)
		if cl.fbRng != nil && cl.fbRng.Float64() < w.FeedbackRate {
			s.feedbackAnswer(srv, ans, w.FeedbackNoise, cl.fbRng)
		}
		if obs != nil {
			obs(epoch, det, origin, qry, ans)
		}
		if interval > 0 {
			time.Sleep(interval)
		}
	}
}

// servePhase runs one epoch's concurrent client phase and fills the
// answer-derived trace fields. It returns the observed latencies. Every
// client serves the head of its quota — all of it, or the first
// pipelineSplit fraction when the workload is pipelined — a non-nil mid hook
// then runs on the calling goroutine at the resulting quiescent point (no
// client in flight — so it can drain feedback deterministically), and the
// clients finish their quotas. The split is invisible to the trace: client
// state persists across it and the served snapshot does not change. Queries
// against a network churn has emptied fail the epoch before any client
// starts: there is no origin to draw.
func (s *Simulation) servePhase(epoch int, w Workload, srv *serve.Server, snap *core.RoutingSnapshot,
	det core.DetectResult, obs Observer, tr *EpochTrace, mid func()) ([]time.Duration, error) {
	if w.QueriesPerEpoch == 0 {
		if mid != nil {
			mid()
		}
		return nil, nil
	}
	live := s.livePeers()
	if len(live) == 0 {
		return nil, errNoLivePeers
	}
	hot := w.HotKeys
	if hot > len(live) {
		hot = len(live)
	}
	var interval time.Duration
	if w.QPS > 0 {
		interval = time.Duration(int64(time.Second) * int64(w.Clients) / int64(w.QPS))
	}

	clients := make([]*workloadClient, w.Clients)
	quotas := make([]int, w.Clients)
	base, rem := w.QueriesPerEpoch/w.Clients, w.QueriesPerEpoch%w.Clients
	for c := range clients {
		quotas[c] = base
		if c < rem {
			quotas[c]++
		}
		cl := &workloadClient{
			rng: rand.New(rand.NewSource(clientSeed(w.Seed, epoch, c))),
			h:   sha256.New(),
		}
		if w.Feedback {
			// A separate stream: the feedback policy must not perturb
			// the client's query draws.
			cl.fbRng = rand.New(rand.NewSource(clientSeed(w.Seed, epoch, c) ^ feedbackSeedSalt))
		}
		cl.lats = make([]time.Duration, 0, quotas[c])
		clients[c] = cl
	}

	run := func(counts []int) {
		var wg sync.WaitGroup
		for c := range clients {
			if counts[c] == 0 {
				continue
			}
			wg.Add(1)
			go func(cl *workloadClient, n int) {
				defer wg.Done()
				cl.serve(s, w, srv, snap, det, obs, epoch, n, live, hot, interval)
			}(clients[c], counts[c])
		}
		wg.Wait()
	}
	heads, tails := quotas, make([]int, w.Clients)
	if w.Pipeline {
		heads = make([]int, w.Clients)
		for c, q := range quotas {
			heads[c] = int(float64(q) * pipelineSplit)
			tails[c] = q - heads[c]
		}
	}
	run(heads)
	if mid != nil {
		mid()
	}
	run(tails)

	var lats []time.Duration
	epochDigest := sha256.New()
	for _, cl := range clients {
		epochDigest.Write(cl.h.Sum(nil))
		tr.Visits += cl.visits
		tr.Records += cl.records
		lats = append(lats, cl.lats...)
	}
	tr.Digest = hex.EncodeToString(epochDigest.Sum(nil))
	return lats, nil
}

// publish freezes det into the network's next routing snapshot — the one
// place the run's publication policy is stated: verdicts at the scenario's θ,
// a delta of the previous snapshot unless the topology changed or the
// workload forces a rebuild — and records in a trace what went out: the
// snapshot's epoch, and whether it was a full build or a delta carrying that
// many θ-verdict flips.
func (s *Simulation) publish(w Workload, det core.DetectResult, epoch *uint64, full *bool, edges *int) *core.RoutingSnapshot {
	snap := s.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: s.sc.Theta, ForceFull: w.FullPublish})
	*epoch = snap.Epoch()
	if d := snap.Delta(); d != nil {
		*edges = d.Size()
	} else {
		*full = true
	}
	return snap
}

// pipelineJob carries a background feedback refresh to the epoch barrier.
type pipelineJob struct {
	ft  *FeedbackTrace
	det core.DetectResult
	err error
}

// pipelineJoin is the epoch-barrier half of the feedback cycle: wait for the
// refresh the mid hook launched, ingest the tail verdicts the clients
// collected while it ran — none in barrier mode; their factor bumps apply now
// and their re-detection rides the next refresh, or the final drain, via the
// dirty marks, since feedback factors fold chunked ingestion exactly like one
// batch — and, when clients will read it, publish the refreshed snapshot, so
// the next epoch (and any concurrent reader) routes on posteriors that
// learned from this epoch. It returns the refresh and the tail size.
func (s *Simulation) pipelineJoin(w Workload, srv *serve.Server, job chan pipelineJob) (pipelineJob, int, error) {
	r := <-job
	if r.err != nil {
		return r, 0, r.err
	}
	ft := r.ft
	ft.Pipelined = w.Pipeline
	if tail := srv.DrainFeedback(); len(tail) > 0 {
		rep, err := s.ingest(tail, w.FeedbackNoise)
		if err != nil {
			return r, 0, err
		}
		ft.TailObservations = len(tail)
		ft.count(len(tail), rep)
	}
	if w.Clients > 0 {
		s.publish(w, r.det, &ft.SnapshotEpoch, &ft.DeltaFull, &ft.DeltaEdges)
	}
	return r, ft.TailObservations, nil
}

// finalDrain closes a pipelined run: the last epoch's tail observations were
// ingested at its barrier but never re-detected, so their dirty marks are
// still pending. One more incremental refresh and publication pins the run's
// final posteriors to what barrier mode would have left behind.
func (s *Simulation) finalDrain(w Workload, srv *serve.Server) (*FeedbackTrace, error) {
	ft, det, err := s.ingestAndRedetect(srv.DrainFeedback(), w)
	if err != nil {
		return nil, err
	}
	ft.Pipelined = true
	s.publish(w, det, &ft.SnapshotEpoch, &ft.DeltaFull, &ft.DeltaEdges)
	return ft, nil
}

// drawQuery draws one (origin, query) pair from the workload mixture: hot
// traffic concentrates on the first `hot` live peers, the analysis attribute
// and a 4-literal vocabulary; cold traffic spreads over everything.
// litTab interns the two-digit workload literals ("w00".."w99" — Vocab is
// capped at 100). drawQuery runs once per served query, so formatting the
// literal each draw would allocate millions of identical strings per run.
var litTab = func() [100]string {
	var t [100]string
	for i := range t {
		t[i] = fmt.Sprintf("w%02d", i)
	}
	return t
}()

func (s *Simulation) drawQuery(rng *rand.Rand, w Workload, live []string, hot int, snap *core.RoutingSnapshot) (graph.PeerID, query.Query) {
	isHot := rng.Float64() < w.Hot && hot > 0
	var origin graph.PeerID
	var attr schema.Attribute
	var lit string
	if isHot {
		origin = graph.PeerID(live[rng.Intn(hot)])
		attr = analysisAttr
		v := w.Vocab
		if v > 4 {
			v = 4
		}
		lit = litTab[rng.Intn(v)]
	} else {
		origin = graph.PeerID(live[rng.Intn(len(live))])
		attr = s.attrs[rng.Intn(len(s.attrs))]
		lit = litTab[rng.Intn(w.Vocab)]
	}
	sch, _ := snap.Schema(origin)
	var ops []query.Op
	switch rng.Intn(3) {
	case 0: // pure projection
		ops = []query.Op{{Kind: query.Project, Attr: attr}}
	case 1: // select + project
		ops = []query.Op{
			{Kind: query.Select, Attr: attr, Literal: lit},
			{Kind: query.Project, Attr: attr},
		}
	default: // pure selection (full records)
		ops = []query.Op{{Kind: query.Select, Attr: attr, Literal: lit}}
	}
	return origin, query.MustNew(sch, ops...)
}

// ensureStores attaches a deterministic document store to every store-less
// peer (including peers that joined through churn). Contents derive from the
// workload seed and the peer name only, so they are identical across runs
// whatever order peers appear in.
func (s *Simulation) ensureStores(w Workload) {
	for _, p := range s.net.Peers() {
		if _, ok := p.Store(); ok {
			continue
		}
		st, err := xmldb.NewStore(p.Schema())
		if err != nil {
			panic(err) // peer schemas are never nil
		}
		h := fnv.New64a()
		h.Write([]byte(p.ID()))
		rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ w.Seed*1_000_003))
		for i := 0; i < w.Records; i++ {
			rec := make(xmldb.Record, len(s.attrs))
			for _, a := range s.attrs {
				vals := []string{fmt.Sprintf("w%02d %s r%d", rng.Intn(w.Vocab), p.ID(), i)}
				if rng.Intn(4) == 0 {
					vals = append(vals, fmt.Sprintf("w%02d %s extra", rng.Intn(w.Vocab), p.ID()))
				}
				rec[a] = vals
			}
			if err := st.Insert(rec); err != nil {
				panic(err)
			}
		}
		if err := p.AttachStore(st); err != nil {
			panic(err)
		}
	}
}
