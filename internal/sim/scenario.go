// Package sim is a seeded, deterministic scenario engine for dynamic PDMS
// networks. A Scenario is a declarative, JSON-serializable description of a
// reproducible experiment — initial overlay, corruption model, and a
// timeline of epochs whose events make peers join and leave, and mappings
// appear, disappear, and get corrupted or repaired — in the spirit of
// CUDF-style shareable problem instances. Replaying a scenario drives the
// whole stack: topology generation (internal/graph), churn maintenance and
// incremental evidence discovery (internal/core), detection over the
// simulated transport (internal/network), and θ-gated query routing. After
// every epoch the engine re-runs detection incrementally and checks a suite
// of invariants; the resulting Trace is bit-for-bit reproducible from the
// scenario alone, which is what the golden-trace regression tests under
// cmd/pdmssim/testdata pin down. See TESTING.md.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/network"
)

// EventOp enumerates the churn event kinds of a scenario timeline.
type EventOp string

const (
	// OpJoin adds a fresh peer (connect it with OpAddMapping events).
	OpJoin EventOp = "join"
	// OpLeave removes a peer and every mapping incident to it.
	OpLeave EventOp = "leave"
	// OpAddMapping declares a new identity mapping From→To.
	OpAddMapping EventOp = "add-mapping"
	// OpRemoveMapping drops a mapping.
	OpRemoveMapping EventOp = "remove-mapping"
	// OpCorrupt replaces a mapping in place with a corrupted revision
	// (its first two attributes swapped).
	OpCorrupt EventOp = "corrupt-mapping"
	// OpFix replaces a mapping in place with the clean identity revision.
	OpFix EventOp = "fix-mapping"
	// OpFlashcrowd floods this epoch's feedback cycle with Count extra
	// routed feedback queries — a sudden surge of honest traffic whose
	// observations all land in one ingestion batch.
	OpFlashcrowd EventOp = "flashcrowd"
	// OpPartition splits the live peers into two halves (by sorted name) and
	// severs detection messages across the cut until OpHeal. Routing and
	// feedback ingestion are unaffected: the partition models a failed
	// message substrate, not a split database federation.
	OpPartition EventOp = "partition"
	// OpHeal reconnects a partitioned network.
	OpHeal EventOp = "heal"
)

// Event is one churn event. Which fields are meaningful depends on Op:
// Peer for join/leave, Mapping for every mapping op, From/To only for
// add-mapping, Count only for flashcrowd. Partition and heal carry nothing.
type Event struct {
	Op      EventOp `json:"op"`
	Peer    string  `json:"peer,omitempty"`
	Mapping string  `json:"mapping,omitempty"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// Adversary strategy names (AdversarySpec.Strategy).
const (
	// AdvPoison floods the feedback plane with coordinated lies about the
	// target chains: clean targets are denounced (contradict), corrupted
	// ones whitewashed (confirm), Volume observations per clique member and
	// target every feedback epoch.
	AdvPoison = "poison"
	// AdvSelfPromote manipulates belief propagation itself: the clique's
	// peers send the hard "my mappings are certainly correct" message on
	// every outgoing factor edge, whatever their local evidence says.
	AdvSelfPromote = "selfpromote"
	// AdvSybil is a clique vouching for its own corrupted mappings: every
	// member confirms every target chain, Volume observations each, every
	// feedback epoch.
	AdvSybil = "sybil"
)

// AdversarySpec declares one coordinated group of misbehaving peers. The
// clique is active for the whole scenario; members that leave (or have not
// joined yet) simply fall silent, and targets that churn away are skipped.
type AdversarySpec struct {
	Strategy string `json:"strategy"`
	// Peers are the clique members (reporters for poison/sybil, message
	// manipulators for selfpromote).
	Peers []string `json:"peers"`
	// Targets are the attacked mapping IDs (poison: chains to lie about;
	// sybil: the clique's own corrupted mappings to vouch for). Unused by
	// selfpromote.
	Targets []string `json:"targets,omitempty"`
	// Volume is how many lying observations each member fabricates per
	// target per feedback epoch (default 3 — deliberately below the trust
	// plane's conviction threshold, so default attacks show the delayed
	// decay; set it ≥ internal/feedback.TrustMinVolume for same-batch
	// conviction).
	Volume int `json:"volume,omitempty"`
}

// Epoch is one simulation step: apply the events, re-discover evidence
// incrementally, re-run detection, check invariants, then route a burst of
// queries.
type Epoch struct {
	// Events are applied in order before detection.
	Events []Event `json:"events,omitempty"`
	// PSend is the remote-message delivery probability for this epoch's
	// detection run; 0 means reliable (1.0).
	PSend float64 `json:"psend,omitempty"`
	// Queries is the size of the θ-gated query burst routed after
	// detection (origins drawn deterministically from the scenario seed).
	Queries int `json:"queries,omitempty"`
	// FeedbackQueries closes the loop for this epoch: that many queries are
	// routed on the fresh posteriors, every traversed path is judged by the
	// ground-truth oracle (flipped with Scenario.FeedbackNoise), the
	// observations are ingested as evidence and a bounded incremental
	// re-detection runs — all covered by the invariant suite and the
	// scratch differential.
	FeedbackQueries int `json:"feedbackQueries,omitempty"`
	// CrashAt kills the process at this belief-propagation round of the
	// epoch's detection run (after churn and discovery have been journaled):
	// the epoch's in-flight detection is lost, the write-ahead log is cut at
	// a seeded, possibly frame-tearing offset, the network is rebuilt from
	// checkpoint + log replay, and the epoch continues on the recovered
	// network. 0 disables; requires Scenario.WAL.
	CrashAt int `json:"crashAt,omitempty"`
}

// Scenario is a complete, declarative, reproducible experiment description.
// The zero values of most fields select sensible defaults (see
// withDefaults); Peers and Epochs are the only mandatory inputs.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every random choice: initial topology, initial
	// corruption, message loss and query origins. Same scenario, same
	// trace, bit for bit.
	Seed int64 `json:"seed"`

	// Initial overlay of Peers peers over a shared schema of Attrs
	// attributes a0..a{Attrs-1}, with identity mappings of which a Corrupt
	// fraction start out corrupted (a0/a1 swapped). Topology selects the
	// generator: "ba" (default) is a preferential-attachment graph with
	// degree parameter Attach; "ring" is a directed ring with short
	// forward chords (strongly connected, loopy evidence); "necklace" is a
	// ring of disjoint 3-cycles (strongly connected with a forest factor
	// graph — exact inference, the overlay the schedule differential runs
	// on). Ring and necklace overlays are directed by construction.
	Topology string  `json:"topology,omitempty"`
	Peers    int     `json:"peers"`
	Attach   int     `json:"attach,omitempty"`
	Attrs    int     `json:"attrs,omitempty"`
	Corrupt  float64 `json:"corrupt,omitempty"`
	Directed bool    `json:"directed,omitempty"`

	// Detection configuration (on analysisAttr).
	MaxLen    int     `json:"maxLen,omitempty"`    // structure length bound, default 4
	Delta     float64 `json:"delta,omitempty"`     // Δ of §4.5, default 0.1
	Theta     float64 `json:"theta,omitempty"`     // routing threshold, default 0.5
	MaxRounds int     `json:"maxRounds,omitempty"` // detection rounds bound, default 300
	// FeedbackNoise is the verdict flip probability of the ground-truth
	// feedback oracle (and the assumed error rate passed to ingestion);
	// only meaningful for epochs with FeedbackQueries. Must be below 0.5.
	FeedbackNoise float64 `json:"feedbackNoise,omitempty"`

	// Transport selects the message substrate detection runs on: "sim"
	// (default, the single-threaded deterministic simulator), "sharded"
	// (parallel sharded simulator) or "tcp" (loopback TCP — every remote
	// message crosses a real socket as wire-encoded bytes). The trace is
	// identical whichever transport carries it; the field exists so the
	// whole stack can be replayed — and golden-diffed — over each one.
	Transport string `json:"transport,omitempty"`
	// Shards is the worker count for the sharded transport (0 picks
	// GOMAXPROCS; the trace does not depend on it).
	Shards int `json:"shards,omitempty"`
	// DetectWorkers is the worker-pool size for component-parallel
	// incremental re-detection (feedback refreshes). Dirty components run
	// concurrently, each on its own transport; the trace does not depend on
	// the worker count (core merges in canonical component order).
	DetectWorkers int `json:"detectWorkers,omitempty"`

	// WAL journals every network state mutation — churn, discovery,
	// feedback, prior learning — to an in-memory write-ahead log with an
	// explicit fsync watermark, the substrate of the deterministic crash
	// injector (Epoch.CrashAt). Detection messages are not journaled:
	// detection is deterministic from the journaled state and the epoch
	// seed, so recovery re-runs it and lands on identical posteriors.
	WAL bool `json:"wal,omitempty"`
	// CheckpointEvery compacts the log into a checkpoint after that many
	// records (0 = the wal package default; negative disables periodic
	// checkpoints). Requires WAL.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`

	// Adversaries declares coordinated misbehaving cliques active for the
	// whole scenario (see AdversarySpec). Their lies ride the same feedback
	// batches as honest observations; the trust-weighted detector is
	// expected to discount them.
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`
	// NoTrust disables per-reporter trust weighting in feedback ingestion —
	// the vulnerable baseline the adversarial scenarios demonstrate their
	// attacks against. A bit-exact no-op on honest networks.
	NoTrust bool `json:"noTrust,omitempty"`

	// RecordPosteriors includes the full posterior map in every epoch
	// trace (keep scenarios small when enabling it).
	RecordPosteriors bool `json:"recordPosteriors,omitempty"`
	// Verify enables the scratch differential: after every epoch the
	// incrementally maintained inference state is compared against a
	// from-scratch rebuild + full rediscovery of the same topology.
	Verify bool `json:"verify,omitempty"`

	Epochs []Epoch `json:"epochs"`
}

// withDefaults fills zero-valued optional fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Topology == "" {
		sc.Topology = "ba"
	}
	if sc.Topology == "ring" || sc.Topology == "necklace" {
		sc.Directed = true // these overlays are directed by construction
	}
	if sc.Attach == 0 {
		sc.Attach = 2
	}
	if sc.Attrs == 0 {
		sc.Attrs = 4
	}
	if sc.MaxLen == 0 {
		sc.MaxLen = 4
	}
	if sc.Delta == 0 {
		sc.Delta = 0.1
	}
	if sc.Theta == 0 {
		sc.Theta = 0.5
	}
	if sc.MaxRounds == 0 {
		sc.MaxRounds = 300
	}
	for i := range sc.Adversaries {
		if sc.Adversaries[i].Volume == 0 {
			sc.Adversaries[i].Volume = 3
		}
	}
	return sc
}

// check validates a scenario after defaulting.
func (sc Scenario) check() error {
	if sc.Topology != "ba" && sc.Topology != "ring" && sc.Topology != "necklace" {
		return fmt.Errorf("sim: unknown topology %q", sc.Topology)
	}
	if sc.Peers < sc.Attach+1 {
		return fmt.Errorf("sim: %d peers too few for attach %d", sc.Peers, sc.Attach)
	}
	if sc.Attrs < 2 {
		return fmt.Errorf("sim: need at least 2 attributes, got %d", sc.Attrs)
	}
	if !(0 <= sc.Corrupt && sc.Corrupt <= 1) {
		return fmt.Errorf("sim: corrupt fraction %v out of [0,1]", sc.Corrupt)
	}
	if sc.MaxLen < 2 {
		return fmt.Errorf("sim: maxLen %d too small", sc.MaxLen)
	}
	if !(0 <= sc.Theta && sc.Theta < 1) {
		return fmt.Errorf("sim: theta %v out of [0,1)", sc.Theta)
	}
	switch network.Kind(sc.Transport) {
	case "", network.KindSim, network.KindSharded, network.KindTCP:
	default:
		return fmt.Errorf("sim: unknown transport %q", sc.Transport)
	}
	if sc.Shards < 0 {
		return fmt.Errorf("sim: negative shard count %d", sc.Shards)
	}
	if sc.DetectWorkers < 0 {
		return fmt.Errorf("sim: negative detect worker count %d", sc.DetectWorkers)
	}
	if !(0 <= sc.FeedbackNoise && sc.FeedbackNoise < 0.5) {
		return fmt.Errorf("sim: feedback noise %v out of [0,0.5)", sc.FeedbackNoise)
	}
	if sc.CheckpointEvery != 0 && !sc.WAL {
		return fmt.Errorf("sim: checkpointEvery requires wal")
	}
	selfPromote := false
	for i, ad := range sc.Adversaries {
		switch ad.Strategy {
		case AdvPoison, AdvSelfPromote, AdvSybil:
		default:
			return fmt.Errorf("sim: adversary %d: unknown strategy %q", i+1, ad.Strategy)
		}
		if len(ad.Peers) == 0 {
			return fmt.Errorf("sim: adversary %d: no peers", i+1)
		}
		if ad.Strategy != AdvSelfPromote && len(ad.Targets) == 0 {
			return fmt.Errorf("sim: adversary %d: %s needs targets", i+1, ad.Strategy)
		}
		if ad.Volume < 0 {
			return fmt.Errorf("sim: adversary %d: negative volume", i+1)
		}
		if ad.Strategy == AdvSelfPromote {
			selfPromote = true
		}
	}
	for i, ep := range sc.Epochs {
		if !(0 <= ep.PSend && ep.PSend <= 1) {
			return fmt.Errorf("sim: epoch %d: psend %v out of [0,1]", i+1, ep.PSend)
		}
		if ep.Queries < 0 {
			return fmt.Errorf("sim: epoch %d: negative query burst", i+1)
		}
		if ep.FeedbackQueries < 0 {
			return fmt.Errorf("sim: epoch %d: negative feedback burst", i+1)
		}
		if ep.CrashAt < 0 {
			return fmt.Errorf("sim: epoch %d: negative crashAt", i+1)
		}
		if ep.CrashAt > 0 && !sc.WAL {
			return fmt.Errorf("sim: epoch %d: crashAt requires wal", i+1)
		}
		if ep.CrashAt > 0 && selfPromote {
			// The self-promotion flag lies on the wire, not in the journaled
			// network state: a crash recovery would silently disarm the
			// attack mid-run, so the combination is rejected outright.
			return fmt.Errorf("sim: epoch %d: crashAt cannot be combined with a selfpromote adversary", i+1)
		}
		for j, ev := range ep.Events {
			if ev.Op == OpFlashcrowd && ev.Count <= 0 {
				return fmt.Errorf("sim: epoch %d event %d: flashcrowd needs a positive count", i+1, j+1)
			}
			if ev.Op != OpFlashcrowd && ev.Count != 0 {
				return fmt.Errorf("sim: epoch %d event %d: count is only meaningful on flashcrowd", i+1, j+1)
			}
		}
	}
	return nil
}

// ParseScenario decodes a scenario from JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return parseStrict[Scenario](data, "scenario") }

// GenConfig parameterizes random scenario generation.
type GenConfig struct {
	Seed    int64
	Peers   int     // initial peer count (default 12)
	Attach  int     // preferential-attachment degree (default 2)
	Attrs   int     // schema size (default 4)
	Corrupt float64 // initial corruption fraction (default 0.15)
	Epochs  int     // number of epochs (default 4)
	Events  int     // churn events per epoch (default 4; negative = static scenario)
	Queries int     // query burst per epoch (default 8)
	PSend   float64 // per-epoch delivery probability (default reliable)
	Verify  bool    // enable the scratch differential
	// FeedbackQueries enables a result-feedback cycle per epoch (routed
	// queries judged by the ground-truth oracle with FeedbackNoise, then
	// ingested and incrementally re-detected). Default 0 = off.
	FeedbackQueries int
	FeedbackNoise   float64
	// AdvFraction converts that share of the initial peers into one
	// coordinated adversarial clique (rounded down, at least one member when
	// positive). AdvStrategy picks its strategy (default "poison"); poison
	// cliques target the first two initially clean mappings, sybil cliques
	// the first two initially corrupted ones. AdvVolume is the per-member
	// per-target lie volume (0 = the scenario default). If the seeded
	// topology offers no suitable target the clique is omitted.
	AdvFraction float64
	AdvStrategy string
	AdvVolume   int
	// NoTrust disables trust weighting in the generated scenario — the
	// vulnerable baseline for differential experiments.
	NoTrust bool
}

func (cfg GenConfig) withDefaults() GenConfig {
	if cfg.Peers == 0 {
		cfg.Peers = 12
	}
	if cfg.Attach == 0 {
		cfg.Attach = 2
	}
	if cfg.Attrs == 0 {
		cfg.Attrs = 4
	}
	if cfg.Corrupt == 0 {
		cfg.Corrupt = 0.15
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 4
	}
	if cfg.Events == 0 {
		cfg.Events = 4
	} else if cfg.Events < 0 {
		cfg.Events = 0
	}
	if cfg.Queries == 0 {
		cfg.Queries = 8
	}
	return cfg
}

// Generate builds a random but fully declarative scenario: every event names
// concrete peers and mappings, chosen against a shadow replay of the
// scenario so the timeline is guaranteed to be applicable (leaves reference
// live peers, corruptions reference clean mappings, and so on). The same
// GenConfig always yields the same scenario.
func Generate(cfg GenConfig) (Scenario, error) {
	cfg = cfg.withDefaults()
	if !(0 <= cfg.AdvFraction && cfg.AdvFraction <= 1) {
		return Scenario{}, fmt.Errorf("sim: adversary fraction %v out of [0,1]", cfg.AdvFraction)
	}
	if cfg.AdvFraction == 0 && (cfg.AdvStrategy != "" || cfg.AdvVolume != 0) {
		return Scenario{}, fmt.Errorf("sim: adversary strategy or volume without a positive adversary fraction")
	}
	sc := Scenario{
		Name:          fmt.Sprintf("gen-%d", cfg.Seed),
		Seed:          cfg.Seed,
		Peers:         cfg.Peers,
		Attach:        cfg.Attach,
		Attrs:         cfg.Attrs,
		Corrupt:       cfg.Corrupt,
		Verify:        cfg.Verify,
		FeedbackNoise: cfg.FeedbackNoise,
		NoTrust:       cfg.NoTrust,
	}
	shadow, err := New(sc)
	if err != nil {
		return Scenario{}, err
	}
	sc.Adversaries = generateAdversaries(cfg, shadow)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	for e := 0; e < cfg.Epochs; e++ {
		ep := Epoch{PSend: cfg.PSend, Queries: cfg.Queries, FeedbackQueries: cfg.FeedbackQueries}
		for i := 0; i < cfg.Events; i++ {
			evs := shadow.randomEvents(rng)
			for _, ev := range evs {
				if err := shadow.applyEvent(ev); err != nil {
					return Scenario{}, fmt.Errorf("sim: generated invalid event %+v: %w", ev, err)
				}
			}
			ep.Events = append(ep.Events, evs...)
		}
		sc.Epochs = append(sc.Epochs, ep)
	}
	// The shadow was built before the adversaries were attached.
	if err := sc.withDefaults().check(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// generateAdversaries converts GenConfig.AdvFraction of the initial peers
// into one clique against the shadow simulation's seeded initial state. The
// clique members are the lowest-numbered peers (declarative and seed-stable);
// poison targets the first initially clean mappings, sybil the first
// initially corrupted ones. Nil when the fraction is zero or no target fits.
func generateAdversaries(cfg GenConfig, shadow *Simulation) []AdversarySpec {
	if cfg.AdvFraction <= 0 {
		return nil
	}
	k := int(cfg.AdvFraction * float64(cfg.Peers))
	if k < 1 {
		k = 1
	}
	if k > cfg.Peers {
		k = cfg.Peers
	}
	strategy := cfg.AdvStrategy
	if strategy == "" {
		strategy = AdvPoison
	}
	peers := make([]string, 0, k)
	for i := 0; i < k; i++ {
		peers = append(peers, fmt.Sprintf("p%d", i))
	}
	ad := AdversarySpec{Strategy: strategy, Peers: peers, Volume: cfg.AdvVolume}
	if strategy != AdvSelfPromote {
		wantCorrupt := strategy == AdvSybil
		for _, id := range shadow.liveMappings() {
			if shadow.corrupted[graph.EdgeID(id)] == wantCorrupt {
				ad.Targets = append(ad.Targets, id)
				if len(ad.Targets) == 2 {
					break
				}
			}
		}
		if len(ad.Targets) == 0 {
			return nil
		}
	}
	return []AdversarySpec{ad}
}

// randomEvents draws one churn action against the current shadow state. A
// join returns the join event together with the add-mapping events that
// connect the new peer, so scenarios stay fully declarative.
func (s *Simulation) randomEvents(rng *rand.Rand) []Event {
	live := s.livePeers()
	mappings := s.liveMappings()
	var clean, corrupt []string
	for _, id := range mappings {
		if s.corrupted[graph.EdgeID(id)] {
			corrupt = append(corrupt, id)
		} else {
			clean = append(clean, id)
		}
	}
	for tries := 0; tries < 32; tries++ {
		switch rng.Intn(6) {
		case 0: // join with 1–2 preferential attachments
			p := fmt.Sprintf("p%d", s.nextPeer)
			targets := s.net.Topology().PreferentialTargets(1+rng.Intn(2), "", rng)
			if len(targets) == 0 {
				continue
			}
			evs := []Event{{Op: OpJoin, Peer: p}}
			for _, t := range targets {
				evs = append(evs, Event{
					Op:   OpAddMapping,
					From: p, To: string(t),
					Mapping: fmt.Sprintf("m%d", s.nextEdge+len(evs)-1),
				})
			}
			return evs
		case 1: // leave (keep the network viable)
			if len(live) <= s.sc.Attach+2 {
				continue
			}
			return []Event{{Op: OpLeave, Peer: live[rng.Intn(len(live))]}}
		case 2: // extra mapping between two live peers
			if len(live) < 2 {
				continue
			}
			i := rng.Intn(len(live))
			j := rng.Intn(len(live) - 1)
			if j >= i {
				j++
			}
			return []Event{{
				Op:      OpAddMapping,
				From:    live[i],
				To:      live[j],
				Mapping: fmt.Sprintf("m%d", s.nextEdge),
			}}
		case 3: // remove a mapping, but never below tree density
			if len(mappings) <= len(live) {
				continue
			}
			return []Event{{Op: OpRemoveMapping, Mapping: mappings[rng.Intn(len(mappings))]}}
		case 4: // corrupt a clean mapping
			if len(clean) == 0 {
				continue
			}
			return []Event{{Op: OpCorrupt, Mapping: clean[rng.Intn(len(clean))]}}
		case 5: // fix a corrupted mapping
			if len(corrupt) == 0 {
				continue
			}
			return []Event{{Op: OpFix, Mapping: corrupt[rng.Intn(len(corrupt))]}}
		}
	}
	return nil
}
