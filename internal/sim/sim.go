package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/wal"
)

// parseStrict decodes JSON into a T, rejecting unknown fields so a typo in a
// spec file fails loudly instead of silently defaulting.
func parseStrict[T any](data []byte, what string) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		var zero T
		return zero, fmt.Errorf("sim: parsing %s: %w", what, err)
	}
	return v, nil
}

// mapSpec remembers enough about a live mapping to rebuild the network from
// scratch (the Verify differential) and to revise the mapping in place.
type mapSpec struct {
	from, to  graph.PeerID
	corrupted bool
}

// Simulation replays one scenario. Create with New, drive with Run or
// RunWorkload.
type Simulation struct {
	sc    Scenario
	net   *core.Network
	attrs []schema.Attribute
	// identity and corrupted correspondence tables shared by every mapping.
	idPairs, swapPairs map[schema.Attribute]schema.Attribute

	specs      map[graph.EdgeID]mapSpec
	corrupted  map[graph.EdgeID]bool
	discovered bool
	nextPeer   int
	nextEdge   int

	// fedback accumulates every ingested query-feedback observation (pruned
	// when churn removes a chain's mapping or a reporter leaves, mirroring
	// core's retraction) so the scratch differential can replay them into a
	// rebuilt network.
	fedback []core.QueryFeedback

	// Adversary and partition state (see adversary.go). partSide maps peers
	// to their side while partitioned (absent = side 0); flashPending is the
	// extra feedback-query volume flashcrowd events queued for this epoch.
	partitioned  bool
	partSide     map[graph.PeerID]int
	flashPending int

	// Durability plane (Scenario.WAL): every mutation of net is journaled to
	// wlog over wstore; Epoch.CrashAt cuts the log mid-detection and rebuilds
	// net from recovery. The log is opened SyncAlways so only the injected
	// torn tail — never a group-commit window — separates the journal from
	// the network, keeping the crash differential exact.
	wlog   *wal.Log
	wstore *wal.MemStorage
}

// New builds the scenario's initial network: a preferential-attachment
// overlay over a shared schema with the seeded fraction of mappings
// corrupted. Events have not been applied yet; Run replays the epochs.
func New(sc Scenario) (*Simulation, error) {
	return build(sc, nil)
}

// NewDurable builds the scenario over an externally owned write-ahead log —
// typically one opened on wal.DirStorage — so every mutation of the run is
// journaled durably. The log must be fresh (nothing to recover), and the
// scenario must not also request the in-memory injector WAL: crash
// injection (Epoch.CrashAt) is the in-memory log's job.
func NewDurable(sc Scenario, lg *wal.Log) (*Simulation, error) {
	if sc.WAL {
		return nil, fmt.Errorf("sim: scenario wal and an external log are mutually exclusive")
	}
	if lg == nil {
		return nil, fmt.Errorf("sim: NewDurable needs a log")
	}
	if !lg.Empty() {
		return nil, fmt.Errorf("sim: NewDurable needs a fresh log, this one holds recovered state")
	}
	return build(sc, lg)
}

func build(sc Scenario, ext *wal.Log) (*Simulation, error) {
	sc = sc.withDefaults()
	if err := sc.check(); err != nil {
		return nil, err
	}
	attrs := make([]schema.Attribute, sc.Attrs)
	for i := range attrs {
		attrs[i] = schema.Attribute(fmt.Sprintf("a%d", i))
	}
	s := &Simulation{
		sc:        sc,
		attrs:     attrs,
		idPairs:   make(map[schema.Attribute]schema.Attribute, len(attrs)),
		swapPairs: make(map[schema.Attribute]schema.Attribute, len(attrs)),
		specs:     make(map[graph.EdgeID]mapSpec),
		corrupted: make(map[graph.EdgeID]bool),
	}
	for _, a := range attrs {
		s.idPairs[a] = a
		s.swapPairs[a] = a
	}
	s.swapPairs[attrs[0]], s.swapPairs[attrs[1]] = attrs[1], attrs[0]

	rng := rand.New(rand.NewSource(sc.Seed))
	var topo *graph.Graph
	var err error
	switch sc.Topology {
	case "ring":
		topo, err = ringWithChords(sc.Peers, rng)
	case "necklace":
		topo, err = necklace(sc.Peers)
	default:
		topo, err = graph.BarabasiAlbert(sc.Peers, sc.Attach, sc.Directed, rng)
	}
	if err != nil {
		return nil, err
	}
	s.net = core.NewNetwork(sc.Directed)
	if sc.WAL {
		s.wstore = wal.NewMemStorage()
		lg, err := wal.Open(s.wstore, s.walOpts())
		if err != nil {
			return nil, err
		}
		ext = lg
	}
	if ext != nil {
		if err := ext.AttachTo(s.net); err != nil {
			return nil, err
		}
		s.wlog = ext
	}
	for _, p := range topo.Peers() {
		s.net.MustAddPeer(p, s.schemaFor(p))
	}
	for _, e := range topo.Edges() {
		pairs := s.idPairs
		corrupt := rng.Float64() < sc.Corrupt
		if corrupt {
			pairs = s.swapPairs
			s.corrupted[e.ID] = true
		}
		if _, err := s.net.AddMapping(e.ID, e.From, e.To, pairs); err != nil {
			return nil, err
		}
		s.specs[e.ID] = mapSpec{from: e.From, to: e.To, corrupted: corrupt}
	}
	s.nextPeer = sc.Peers
	s.nextEdge = topo.NumEdges()
	s.applyAdversaries()
	return s, nil
}

// ringWithChords builds the strongly connected differential overlay: a
// directed ring p0→p1→…→p0 (edges m0..m{n-1}) plus, per peer, a short
// forward chord c<i> jumping 2 or 3 positions with probability 0.7. The
// chords run parallel to short ring segments, producing the parallel-path
// and cycle evidence of §3.3 while the ring guarantees every peer can be
// reached from every origin — the property the lazy (piggybacking) schedule
// needs for full message dissemination.
func ringWithChords(n int, rng *rand.Rand) (*graph.Graph, error) {
	g, err := graph.Ring(n)
	if err != nil {
		return nil, err
	}
	if n < 4 {
		return g, nil
	}
	for i := 0; i < n; i++ {
		if rng.Float64() >= 0.7 {
			continue
		}
		jump := 2 + rng.Intn(2)
		g.MustAddEdge(
			graph.EdgeID(fmt.Sprintf("c%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", (i+jump)%n)),
		)
	}
	return g, nil
}

// necklace builds the schedule-differential overlay: blocks of three peers,
// each forming a directed 3-cycle (edges m<3b>..m<3b+2>), chained into a
// ring of blocks by bridge mappings b<i>. The overlay is strongly connected
// (queries and piggybacked messages reach every peer), yet with a structure
// bound of 4 the only evidence is the per-block 3-cycles, which share no
// mappings — the factor graph is a forest, belief propagation is exact, and
// every schedule must land on the same posteriors to machine precision.
// Peers is rounded down to a multiple of three (minimum one block).
func necklace(n int) (*graph.Graph, error) {
	blocks := n / 3
	if blocks < 1 {
		return nil, fmt.Errorf("sim: necklace needs at least 3 peers, got %d", n)
	}
	g := graph.NewDirected()
	peer := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i)) }
	for b := 0; b < blocks; b++ {
		base := 3 * b
		for i := 0; i < 3; i++ {
			g.MustAddEdge(
				graph.EdgeID(fmt.Sprintf("m%d", base+i)),
				peer(base+i), peer(base+(i+1)%3),
			)
		}
	}
	for b := 0; b < blocks && blocks > 1; b++ {
		g.MustAddEdge(
			graph.EdgeID(fmt.Sprintf("b%d", b)),
			peer(3*b+2), peer(3*((b+1)%blocks)),
		)
	}
	return g, nil
}

// Network exposes the simulation's live network (shared; do not mutate
// outside applyEvent).
func (s *Simulation) Network() *core.Network { return s.net }

func (s *Simulation) walOpts() wal.Options {
	return wal.Options{Sync: wal.SyncAlways, CheckpointEvery: s.sc.CheckpointEvery}
}

// Attributes returns the scenario's attribute universe in canonical order.
func (s *Simulation) Attributes() []schema.Attribute {
	return append([]schema.Attribute(nil), s.attrs...)
}

// Corrupted reports whether the mapping is currently a corrupted revision.
func (s *Simulation) Corrupted(id graph.EdgeID) bool { return s.corrupted[id] }

func (s *Simulation) schemaFor(p graph.PeerID) *schema.Schema {
	return schema.MustNew("S_"+string(p), s.attrs...)
}

// livePeers returns the current peer names, sorted.
func (s *Simulation) livePeers() []string {
	out := make([]string, 0, s.net.NumPeers())
	for _, p := range s.net.Peers() {
		out = append(out, string(p.ID()))
	}
	sort.Strings(out)
	return out
}

// liveMappings returns the current mapping IDs, sorted.
func (s *Simulation) liveMappings() []string {
	edges := s.net.Topology().Edges()
	out := make([]string, 0, len(edges))
	for _, e := range edges {
		out = append(out, string(e.ID))
	}
	sort.Strings(out)
	return out
}

// bumpCounter keeps the fresh-name counters ahead of externally chosen
// names of the form p<N> / m<N>.
func bumpCounter(counter *int, name, prefix string) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return
	}
	if k, err := strconv.Atoi(name[len(prefix):]); err == nil && k >= *counter {
		*counter = k + 1
	}
}

// applyEvent mutates the network for one churn event and returns the
// mapping IDs it (re)installed, if any.
func (s *Simulation) applyEvent(ev Event) error {
	switch ev.Op {
	case OpJoin:
		if ev.Peer == "" {
			return fmt.Errorf("sim: join without peer")
		}
		if _, err := s.net.AddPeer(graph.PeerID(ev.Peer), s.schemaFor(graph.PeerID(ev.Peer))); err != nil {
			return err
		}
		bumpCounter(&s.nextPeer, ev.Peer, "p")
		// A joining peer may be a declared self-promoter waiting to activate.
		s.applyAdversaries()
	case OpLeave:
		if _, ok := s.net.Peer(graph.PeerID(ev.Peer)); !ok {
			return fmt.Errorf("sim: leave of unknown peer %q", ev.Peer)
		}
		removed := s.net.RemovePeer(graph.PeerID(ev.Peer))
		for _, id := range removed {
			delete(s.specs, id)
			delete(s.corrupted, id)
		}
		s.pruneFeedback(graph.PeerID(ev.Peer), removed...)
	case OpAddMapping:
		id := graph.EdgeID(ev.Mapping)
		if _, err := s.net.AddMapping(id, graph.PeerID(ev.From), graph.PeerID(ev.To), s.idPairs); err != nil {
			return err
		}
		s.specs[id] = mapSpec{from: graph.PeerID(ev.From), to: graph.PeerID(ev.To)}
		bumpCounter(&s.nextEdge, ev.Mapping, "m")
	case OpRemoveMapping:
		id := graph.EdgeID(ev.Mapping)
		if _, ok := s.net.Mapping(id); !ok {
			return fmt.Errorf("sim: removal of unknown mapping %q", ev.Mapping)
		}
		s.net.RemoveMapping(id)
		delete(s.specs, id)
		delete(s.corrupted, id)
		s.pruneFeedback("", id)
	case OpCorrupt, OpFix:
		id := graph.EdgeID(ev.Mapping)
		spec, ok := s.specs[id]
		if !ok {
			return fmt.Errorf("sim: revision of unknown mapping %q", ev.Mapping)
		}
		pairs := s.swapPairs
		spec.corrupted = ev.Op == OpCorrupt
		if ev.Op == OpFix {
			pairs = s.idPairs
		}
		// A revision replaces the mapping object: feedback that judged the
		// old revision is retracted with it (core drops the factors; the
		// accumulated replay log must follow).
		s.net.RemoveMapping(id)
		s.pruneFeedback("", id)
		if _, err := s.net.AddMapping(id, spec.from, spec.to, pairs); err != nil {
			return err
		}
		s.specs[id] = spec
		if spec.corrupted {
			s.corrupted[id] = true
		} else {
			delete(s.corrupted, id)
		}
	case OpFlashcrowd:
		if ev.Count <= 0 {
			return fmt.Errorf("sim: flashcrowd without a positive count")
		}
		s.flashPending += ev.Count
	case OpPartition:
		s.partitionNetwork()
	case OpHeal:
		s.healNetwork()
	default:
		return fmt.Errorf("sim: unknown event op %q", ev.Op)
	}
	return nil
}

// installedEdges returns the mapping IDs an event (re)installed — the
// changed set incremental discovery needs to cover.
func installedEdges(ev Event) []graph.EdgeID {
	switch ev.Op {
	case OpAddMapping, OpCorrupt, OpFix:
		return []graph.EdgeID{graph.EdgeID(ev.Mapping)}
	}
	return nil
}

// DiscoveryTrace summarizes one epoch's (incremental) evidence pass.
type DiscoveryTrace struct {
	Structures int `json:"structures"`
	Positive   int `json:"positive"`
	Negative   int `json:"negative"`
	Neutral    int `json:"neutral"`
	Pinned     int `json:"pinned"`
}

// DetectionTrace summarizes one epoch's detection run.
type DetectionTrace struct {
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	Messages  int  `json:"messages"`
	Delivered int  `json:"delivered"`
	Dropped   int  `json:"dropped"`
}

// CrashTrace records one epoch's injected crash and recovery.
type CrashTrace struct {
	// Round is the belief-propagation round the process died at.
	Round int `json:"round"`
	// Cut is how many unsynced bytes the simulated kernel kept — a value
	// inside the final frame leaves a torn tail on the log.
	Cut int `json:"cut"`
	// TornBytes is the torn-tail length recovery discarded.
	TornBytes int `json:"tornBytes"`
	// CheckpointRecords and LogRecords count the mutations replayed from
	// the checkpoint and the log suffix.
	CheckpointRecords int `json:"checkpointRecords"`
	LogRecords        int `json:"logRecords"`
	// DigestMatch reports whether the recovered network's inference digest
	// equals the pre-crash network's — false is an invariant violation.
	DigestMatch bool `json:"digestMatch"`
}

// RoutingTrace summarizes one epoch's θ-gated query burst.
type RoutingTrace struct {
	Queries     int `json:"queries"`
	Visits      int `json:"visits"`
	Blocked     int `json:"blocked"`
	DroppedAttr int `json:"droppedAttr"`
}

// EpochTrace is the reproducible record of one epoch.
type EpochTrace struct {
	Epoch     int `json:"epoch"`
	Events    int `json:"events"`
	Peers     int `json:"peers"`
	Mappings  int `json:"mappings"`
	Corrupted int `json:"corrupted"`
	// Partitioned marks epochs whose detection ran over a severed network
	// (between an OpPartition and its OpHeal).
	Partitioned bool           `json:"partitioned,omitempty"`
	Discovery   DiscoveryTrace `json:"discovery"`
	Detection   DetectionTrace `json:"detection"`
	// CoveredClean/CoveredCorrupt count mappings with a posterior for the
	// analysis attribute; MeanClean/MeanCorrupt average those posteriors
	// (corrupted mappings must rank below clean ones).
	CoveredClean   int          `json:"coveredClean"`
	CoveredCorrupt int          `json:"coveredCorrupt"`
	MeanClean      float64      `json:"meanClean"`
	MeanCorrupt    float64      `json:"meanCorrupt"`
	Routing        RoutingTrace `json:"routing"`
	// Crash records the epoch's injected crash and WAL recovery; nil unless
	// the epoch sets CrashAt.
	Crash *CrashTrace `json:"crash,omitempty"`
	// Feedback records the epoch's result-feedback cycle (routed queries
	// judged by the ground-truth oracle, ingested, incrementally
	// re-detected); nil unless the epoch sets FeedbackQueries.
	Feedback *FeedbackTrace `json:"feedback,omitempty"`
	// Posteriors ("mapping/attr" → P(correct)) is recorded only when the
	// scenario sets RecordPosteriors.
	Posteriors map[string]float64 `json:"posteriors,omitempty"`
	// Violations lists every invariant violated this epoch (empty in a
	// healthy run).
	Violations []string `json:"violations,omitempty"`
}

// Result is the full reproducible trace of a scenario replay.
type Result struct {
	Name   string       `json:"name"`
	Seed   int64        `json:"seed"`
	Epochs []EpochTrace `json:"epochs"`
	// Violations is the total invariant violation count across epochs.
	Violations int `json:"violations"`
	// Digest fingerprints the final distributed inference state (SHA-256
	// over Network.InferenceDigest).
	Digest string `json:"digest"`
}

// epochSeed derives the deterministic per-epoch seed for message loss and
// query origins.
func (s *Simulation) epochSeed(epoch int) int64 {
	return s.sc.Seed*1_000_003 + int64(epoch)*7919
}

// Run replays every epoch and returns the trace. The trace depends only on
// the scenario: replaying it again — in another process, on another machine
// — produces identical bytes. A replay is the epoch driver with zero clients:
// only the scenario's own query and feedback bursts are routed.
func (s *Simulation) Run() (*Result, error) {
	trs, _, _, err := s.drive(Workload{Seed: s.sc.Seed, FeedbackNoise: s.sc.FeedbackNoise}, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: s.sc.Name, Seed: s.sc.Seed, Epochs: trs}
	for _, tr := range trs {
		res.Violations += len(tr.Violations)
	}
	sum := sha256.New()
	for _, line := range s.net.InferenceDigest() {
		sum.Write([]byte(line))
		sum.Write([]byte{'\n'})
	}
	res.Digest = hex.EncodeToString(sum.Sum(nil))
	return res, nil
}

// detectOpts is the scenario's detection configuration — transport, shards,
// refresh workers, the partition's link filter — at the given round budget.
func (s *Simulation) detectOpts(maxRounds int) core.DetectOptions {
	return core.DetectOptions{
		MaxRounds: maxRounds,
		Tolerance: 1e-9,
		Transport: network.Kind(s.sc.Transport),
		Shards:    s.sc.Shards,
		Workers:   s.sc.DetectWorkers,
		Blocked:   s.blockedFn(),
	}
}

func (s *Simulation) discoverCfg() core.DiscoverConfig {
	return core.DiscoverConfig{
		Attrs:  []schema.Attribute{schema.Attribute(s.sc.AnalysisAttr)},
		MaxLen: s.sc.MaxLen,
		Delta:  s.sc.Delta,
	}
}

// advanceEpoch is the epoch driver's first step (see step): churn, crash
// injection, (incremental) evidence discovery and re-detection. It fills the
// structural and detection fields of the trace and returns the detection
// result plus the effective delivery probability.
func (s *Simulation) advanceEpoch(i int) (EpochTrace, core.DetectResult, float64, error) {
	ep := s.sc.Epochs[i]
	tr := EpochTrace{Epoch: i + 1, Events: len(ep.Events)}

	// 1. Churn. Removals retract evidence eagerly inside core; additions
	// and revisions are collected for incremental discovery.
	added := make(map[graph.EdgeID]bool)
	for _, ev := range ep.Events {
		if err := s.applyEvent(ev); err != nil {
			return tr, core.DetectResult{}, 0, err
		}
		for _, id := range installedEdges(ev) {
			added[id] = true
		}
		// An event may retract a mapping installed earlier in this epoch.
		for id := range added {
			if _, ok := s.net.Mapping(id); !ok {
				delete(added, id)
			}
		}
	}
	tr.Peers = s.net.NumPeers()
	tr.Mappings = s.net.Topology().NumEdges()
	tr.Corrupted = len(s.corrupted)
	tr.Partitioned = s.partitioned

	// 2. Evidence: full discovery on the first epoch, incremental after.
	cfg := s.discoverCfg()
	var rep core.DiscoveryReport
	var err error
	if !s.discovered {
		rep, err = s.net.Discover(cfg)
		s.discovered = true
	} else {
		changed := make([]graph.EdgeID, 0, len(added))
		for id := range added {
			changed = append(changed, id)
		}
		sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
		rep, err = s.net.DiscoverIncremental(cfg, changed...)
	}
	if err != nil {
		return tr, core.DetectResult{}, 0, err
	}
	tr.Discovery = DiscoveryTrace{
		Structures: rep.Structures,
		Positive:   rep.Positive,
		Negative:   rep.Negative,
		Neutral:    rep.Neutral,
		Pinned:     rep.Pinned,
	}

	// 3. Incremental re-detection: fresh messages over maintained evidence.
	psend := ep.PSend
	if psend == 0 {
		psend = 1
	}

	// 3a. Crash injection: the process dies CrashAt rounds into detection,
	// the log is cut at a seeded offset, and the epoch continues on the
	// network recovered from checkpoint + replay. Because detection is not
	// journaled and is deterministic from the journaled state and the epoch
	// seed, the full re-run below lands on exactly the posteriors the
	// never-crashed run computes.
	if ep.CrashAt > 0 && s.wlog != nil {
		ct, err := s.crashRecover(i, ep.CrashAt, psend)
		if err != nil {
			return tr, core.DetectResult{}, 0, err
		}
		tr.Crash = ct
	}

	s.net.ResetMessages()
	opts := s.detectOpts(s.sc.MaxRounds)
	opts.PSend, opts.Seed = psend, s.epochSeed(i+1)
	det, err := s.net.RunDetection(opts)
	if err != nil {
		return tr, core.DetectResult{}, 0, err
	}
	tr.Detection = DetectionTrace{
		Rounds:    det.Rounds,
		Converged: det.Converged,
		Messages:  det.RemoteMessages,
		Delivered: det.Transport.Delivered,
		Dropped:   det.Transport.Dropped,
	}

	// 4. Durability maintenance: compact the log into a checkpoint when it
	// has grown past the interval (failures degrade to a growing log and a
	// retry with backoff — never an epoch failure).
	if s.wlog != nil {
		if err := s.wlog.MaybeCheckpoint(s.net); err != nil {
			return tr, core.DetectResult{}, 0, err
		}
	}
	return tr, det, psend, nil
}

// crashRecover is the deterministic crash injector: run detection for
// exactly `round` rounds (the work the dying process wasted), append an
// unsynced mark frame and cut the log's unsynced tail at a seeded offset —
// tearing the final frame when the cut lands inside it — then rebuild the
// network from checkpoint + log replay and swap it in. The recovered
// network's inference digest must equal the pre-crash one.
func (s *Simulation) crashRecover(i, round int, psend float64) (*CrashTrace, error) {
	wantDigest := wal.DigestNetwork(s.net)
	s.net.ResetMessages()
	opts := s.detectOpts(round)
	opts.PSend, opts.Seed = psend, s.epochSeed(i+1)
	if _, err := s.net.RunDetection(opts); err != nil {
		return nil, fmt.Errorf("sim: pre-crash detection: %w", err)
	}
	rng := rand.New(rand.NewSource(s.epochSeed(i+1) + 5))
	cut := rng.Intn(s.wlog.MarkFrameSize() + 1)
	if err := s.wlog.InjectCrash(cut); err != nil {
		return nil, fmt.Errorf("sim: crash injection: %w", err)
	}
	lg, err := wal.Open(s.wstore, s.walOpts())
	if err != nil {
		return nil, fmt.Errorf("sim: reopening log after crash: %w", err)
	}
	rec, rep, err := lg.Recover()
	if err != nil {
		return nil, fmt.Errorf("sim: recovering after crash: %w", err)
	}
	if err := lg.AttachTo(rec); err != nil {
		return nil, fmt.Errorf("sim: reattaching log after crash: %w", err)
	}
	ct := &CrashTrace{
		Round:             round,
		Cut:               cut,
		TornBytes:         rep.TornBytes,
		CheckpointRecords: rep.CheckpointRecords,
		LogRecords:        rep.LogRecords,
		DigestMatch:       wal.DigestNetwork(rec) == wantDigest,
	}
	s.net = rec
	s.wlog = lg
	return ct, nil
}

// flattenPosteriors renders the posterior map with "mapping/attr" keys (the
// JSON encoder sorts map keys, keeping traces byte-stable).
func flattenPosteriors(det core.DetectResult) map[string]float64 {
	out := make(map[string]float64)
	for m, attrs := range det.Posteriors {
		for a, v := range attrs {
			out[string(m)+"/"+string(a)] = v
		}
	}
	return out
}

// summarize fills the covered/mean posterior statistics, iterating in
// sorted order so float accumulation is reproducible.
//
//pdms:deterministic
func (s *Simulation) summarize(tr *EpochTrace, det core.DetectResult) {
	attr := schema.Attribute(s.sc.AnalysisAttr)
	var sumClean, sumCorrupt float64
	for _, id := range s.liveMappings() {
		p := det.Posterior(graph.EdgeID(id), attr, -1)
		if p < 0 {
			continue
		}
		if s.corrupted[graph.EdgeID(id)] {
			tr.CoveredCorrupt++
			sumCorrupt += p
		} else {
			tr.CoveredClean++
			sumClean += p
		}
	}
	if tr.CoveredClean > 0 {
		tr.MeanClean = sumClean / float64(tr.CoveredClean)
	}
	if tr.CoveredCorrupt > 0 {
		tr.MeanCorrupt = sumCorrupt / float64(tr.CoveredCorrupt)
	}
}

// errNoLivePeers fails an epoch that asks for queries after churn emptied the
// network: there is no origin to draw.
var errNoLivePeers = errors.New("no live peers to route from")

// routeBurst is the scenario's own query loop, the zero-client form of
// serving: it draws n origins from the seeded stream, walks snap — the
// epoch's one publication — with a projection on the analysis attribute
// from each, holds every route to the reference walk (verifyRoute) and hands
// it to visit together with the stream, which the feedback burst keeps
// drawing verdict noise from.
//
//pdms:deterministic
func (s *Simulation) routeBurst(kind string, snap *core.RoutingSnapshot, det core.DetectResult, n int, seed int64,
	visit func(origin graph.PeerID, res core.RouteResult, rng *rand.Rand)) ([]string, error) {
	if n == 0 {
		return nil, nil
	}
	live := s.livePeers()
	if len(live) == 0 {
		return nil, errNoLivePeers
	}
	rng := rand.New(rand.NewSource(seed))
	attr := schema.Attribute(s.sc.AnalysisAttr)
	var viol []string
	for q := 0; q < n; q++ {
		origin := graph.PeerID(live[rng.Intn(len(live))])
		sch, _ := snap.Schema(origin)
		qry := query.MustNew(sch, query.Op{Kind: query.Project, Attr: attr})
		res, err := snap.RouteQuery(origin, qry)
		if err != nil {
			viol = append(viol, fmt.Sprintf("%s %d from %s failed: %v", kind, q, origin, err))
			continue
		}
		viol = append(viol, s.verifyRoute(snap, det, origin, qry, res)...)
		visit(origin, res, rng)
	}
	return viol, nil
}
