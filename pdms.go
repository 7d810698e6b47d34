// Package pdms is a library for Peer Data Management Systems with
// probabilistic detection of erroneous schema mappings, reproducing
// Cudré-Mauroux, Aberer and Feher, "Probabilistic Message Passing in Peer
// Data Management Systems" (ICDE 2006).
//
// A PDMS is a network of autonomous databases connected by pairwise schema
// mappings; queries propagate hop by hop through the mappings. Because
// mappings are created independently — often by automatic alignment tools —
// some of them are wrong. This library detects the wrong ones with no
// central coordination:
//
//  1. Build a Network of peers (each with a Schema) and declare the
//     attribute-level Mappings between them.
//  2. Gather evidence: DiscoverStructural enumerates mapping cycles and
//     parallel paths and compares every attribute against its image under
//     the transitive closure of the mappings (positive, negative or
//     neutral feedback); DiscoverByProbes finds the same structures with
//     TTL-bounded probe floods over the simulated transport and installs
//     exactly the same evidence.
//  3. RunDetection executes decentralized loopy belief propagation — every
//     peer holds only its slice of the global factor graph and exchanges
//     small remote messages — and yields P(mapping correct) per attribute.
//     RunDetectionAsync is the asynchronous schedule: no global rounds,
//     every component converges on its own residual frontier, and a peer
//     resends only the messages whose inputs moved. RunLazy piggybacks the
//     same messages on query traffic instead, with zero dedicated
//     communication.
//  4. PublishSnapshot freezes the posteriors under a routing policy
//     (SnapshotOptions) and RoutingSnapshot.RouteQuery forwards queries only
//     through mappings whose posteriors clear the per-attribute semantic
//     threshold θ, eliminating the false positives erroneous mappings would
//     produce. The snapshot is the only router; NewServer answers queries
//     end to end on top of it.
//
// Networks are dynamic: peers leave (Network.RemovePeer) and mappings churn
// (Network.RemoveMapping) with all derived evidence retracted eagerly, new
// mappings are folded in incrementally (Network.DiscoverIncremental), and
// Network.ResetMessages re-arms detection between epochs. The Scenario API
// (NewSimulation, GenerateScenario, ParseScenario and cmd/pdmssim) replays
// declarative churn timelines against the whole stack with a reproducible
// trace and an invariant suite; TESTING.md documents the harness — the
// invariants, the three-way schedule differential, the scratch-rediscovery
// oracle and how to add a scenario.
//
// Every message the stack sends — belief-propagation µ-messages, discovery
// probes, lazy piggybacks — crosses the
// transport as typed, versioned, canonical binary frames (internal/wire),
// and the transport itself is pluggable: DetectOptions.Transport selects
// TransportSim (the default deterministic simulator), TransportSharded (the
// same simulator split into parallel shards for 100k+ peer networks;
// DetectOptions.Shards sets the shard count) or TransportTCP (a loopback TCP socket proving the
// frames survive real serialization). Message loss is a deterministic
// per-(sender, receiver) hash stream, so results — posteriors, message
// counts, drops — are identical on every transport, which the
// cross-transport golden tests pin down. Scenario.Transport threads the
// same choice through the replay engine and cmd/pdmssim's -transport flag.
//
// On top of detection sits the query-serving plane: Network.PublishSnapshot
// freezes the posteriors and the θ-gated overlay into an immutable,
// epoch-stamped RoutingSnapshot behind an atomic pointer, and NewServer
// answers queries end-to-end against the current snapshot — routing,
// per-path rewriting, store execution, canonical merge — from any number of
// goroutines, with a coalescing LRU result cache keyed by (origin, query,
// snapshot epoch). cmd/pdmsload drives the plane with seeded concurrent
// workloads and emits deterministic aggregate traces.
//
// Serving feeds back into inference: every Answer carries its provenance
// (the mapping chain each surviving path traversed), consumers judge results
// with Server.Feedback (confirm / contradict / lost), and the network-owning
// goroutine drains the classified observations into Network.IngestFeedback —
// counting factors over the traversed chains, aggregated per chain with an
// assumed verdict-noise rate. DetectOptions.Incremental then re-runs belief
// propagation only over the factor-graph components the feedback touched and
// republishes an epoch-bumped snapshot, closing the paper's serve → evidence
// → inference → serve cycle while the serving plane keeps answering.
//
// All of this state can be made durable: OpenWAL attaches a write-ahead log
// that journals every mutation — churn, discovered evidence, feedback,
// learned priors — as CRC-framed records before it applies (fsync policy
// selectable, group commit by default in the tools), periodically replaces
// the history with a checkpoint of the network's own canonical export
// (Network.DurableState), and rebuilds the exact network after a crash
// (WAL.Recover, by Network.Apply): same inference digest, same posteriors,
// torn final frames discarded cleanly. cmd/pdmsload -wal runs the closed loop
// durably, and examples/faulttolerance demonstrates kill → recover → continue.
//
// Quickstart:
//
//	s := pdms.MustNewSchema("S1", "Creator", "Title")
//	net := pdms.NewNetwork(true)
//	net.MustAddPeer("p1", s)
//	// … add peers and mappings, then:
//	net.DiscoverStructural([]pdms.Attribute{"Creator"}, 6, 0.1)
//	res, _ := net.RunDetection(pdms.DetectOptions{})
//	p := res.Posterior("m24", "Creator", 0.5)
//
// The examples/ directory contains runnable end-to-end scenarios, and
// cmd/pdmsbench regenerates every figure of the paper's evaluation.
package pdms

import (
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/xmldb"
)

// Core model types.
type (
	// Network is a PDMS: peers, schemas, mappings and the inference state.
	Network = core.Network
	// Peer is one database and its slice of the global factor graph.
	Peer = core.Peer
	// PeerID identifies a peer.
	PeerID = graph.PeerID
	// MappingID identifies a pairwise schema mapping.
	MappingID = graph.EdgeID
	// Schema is a named set of attributes.
	Schema = schema.Schema
	// Attribute names a concept stored by a database.
	Attribute = schema.Attribute
	// Mapping is a directed attribute-level schema mapping.
	Mapping = schema.Mapping
)

// Detection and routing types.
type (
	// DetectOptions configures the periodic and asynchronous message
	// passing schedules.
	DetectOptions = core.DetectOptions
	// DiscoverConfig is the configurable form of evidence gathering:
	// granularity (§4.1) and parallel-path ablation.
	DiscoverConfig = core.DiscoverConfig
	// Granularity selects per-attribute or per-mapping variables (§4.1).
	Granularity = core.Granularity
	// DetectResult carries posteriors and run statistics.
	DetectResult = core.DetectResult
	// DiscoveryReport summarizes an evidence-gathering pass.
	DiscoveryReport = core.DiscoveryReport
	// LazyOptions configures the lazy (piggybacking) schedule.
	LazyOptions = core.LazyOptions
	// LazyQuery is one unit of query workload for the lazy schedule.
	LazyQuery = core.LazyQuery
	// LazyResult reports a lazy run.
	LazyResult = core.LazyResult
	// RouteResult is the outcome of a routed query.
	RouteResult = core.RouteResult
	// Visit records a routed query's arrival at one peer.
	Visit = core.Visit
)

// Query and storage types.
type (
	// Query is a sequence of selection/projection operations.
	Query = query.Query
	// Op is one selection or projection.
	Op = query.Op
	// Store is an XML document store attachable to a peer.
	Store = xmldb.Store
	// Record is one stored document, flattened to attribute → values.
	Record = xmldb.Record
)

// Evaluation types.
type (
	// Judgment scores one correspondence for precision curves.
	Judgment = eval.Judgment
	// PrecisionPoint is one point of a precision/recall curve.
	PrecisionPoint = eval.PrecisionPoint
)

// Scenario simulation types (dynamic-network replay, see TESTING.md).
type (
	// Scenario is a declarative, reproducible churn experiment.
	Scenario = sim.Scenario
	// ScenarioEpoch is one simulation step of a scenario.
	ScenarioEpoch = sim.Epoch
	// ScenarioEvent is one churn event (join/leave/add/remove/corrupt/fix).
	ScenarioEvent = sim.Event
	// Simulation replays a scenario against a live network.
	Simulation = sim.Simulation
	// ScenarioResult is the bit-reproducible trace of a run, replayed
	// (Simulation.Run) or served (RunWorkload): one EpochTrace per epoch,
	// the answer-digest chain when clients served, and the final inference
	// digest on every run.
	ScenarioResult = sim.Result
	// EpochTrace records one epoch of a run: discovery, detection, routing
	// and the invariant suite, plus the serving fields when clients served.
	EpochTrace = sim.EpochTrace
	// GenConfig parameterizes random scenario generation.
	GenConfig = sim.GenConfig
)

// Query-serving plane types (see TESTING.md, "Serving plane"): detection
// publishes immutable, epoch-stamped RoutingSnapshots via an atomic pointer
// swap (Network.PublishSnapshot), and a Server answers queries end-to-end
// against the current snapshot — θ-gated routing, per-path rewriting, store
// execution at every reachable peer, canonical merge — with an LRU result
// cache keyed by (origin, query, snapshot epoch).
type (
	// RoutingSnapshot is an immutable, epoch-stamped serving view.
	RoutingSnapshot = core.RoutingSnapshot
	// SnapshotOptions fixes the routing policy a snapshot is published
	// under (θ thresholds, default posterior, hop bound).
	SnapshotOptions = core.SnapshotOptions
	// Server is the concurrent query-serving plane.
	Server = serve.Server
	// ServeOptions configures a Server (result-cache size).
	ServeOptions = serve.Options
	// Answer is one served query result, consistent with one epoch.
	Answer = serve.Answer
	// AnswerPath is one answer's provenance entry: the mapping chain the
	// query traversed to a contributing peer.
	AnswerPath = serve.Path
	// ServeStats are a Server's monotone counters.
	ServeStats = serve.Stats
)

// Result-feedback types (the serve → evidence → BP → snapshot → serve loop):
// consumers judge served answers (Server.Feedback / FeedbackAnswer /
// FeedbackPath), the network ingests the classified observations as counting
// factors (Network.IngestFeedback), and a bounded re-detection
// (DetectOptions.Incremental) updates only the factor-graph components the
// feedback touched before the snapshot is republished.
type (
	// Verdict is a consumer's judgment of a served result set.
	Verdict = xmldb.Verdict
	// QueryFeedback is one classified observation over a mapping chain.
	QueryFeedback = core.QueryFeedback
	// FeedbackOptions parameterizes feedback ingestion (Δ and the assumed
	// verdict error rate).
	FeedbackOptions = core.FeedbackOptions
	// FeedbackReport summarizes one ingestion pass.
	FeedbackReport = core.FeedbackReport
	// ServeFeedbackStats count the verdicts a Server has classified.
	ServeFeedbackStats = serve.FeedbackStats
	// FeedbackTrace records one simulated epoch's feedback cycle.
	FeedbackTrace = sim.FeedbackTrace
)

// Verdict kinds for Server.Feedback.
const (
	// VerdictConfirm: the records were semantically right (positive
	// feedback on every contributing chain).
	VerdictConfirm = xmldb.VerdictConfirm
	// VerdictContradict: the records were wrong (negative feedback — at
	// least one traversed mapping is incorrect).
	VerdictContradict = xmldb.VerdictContradict
	// VerdictLost: an expected result never arrived (neutral; counted but
	// installs no factor).
	VerdictLost = xmldb.VerdictLost
)

// Judge derives a verdict by comparing served records against a reference
// set: spurious records contradict, missing records mean the result was
// lost, an exact canonical match confirms.
func Judge(got, want []Record) Verdict { return xmldb.Judge(got, want) }

// Workload simulation types (cmd/pdmsload).
type (
	// LoadSpec is a declarative, reproducible load experiment: a churn
	// scenario plus the concurrent workload served against it.
	LoadSpec = sim.LoadSpec
	// Workload parameterizes the client side of a load run.
	Workload = sim.Workload
	// WorkloadResult is ScenarioResult under the name load runs used.
	WorkloadResult = sim.Result
	// WorkloadPerf carries the wall-clock latency/throughput measurements.
	WorkloadPerf = sim.WorkloadPerf
)

// Durability plane types (see TESTING.md, "Durability plane"): a write-ahead
// log journals every network mutation — peer/mapping churn, evidence
// discovery, feedback observations, learned priors — as versioned,
// CRC32-framed records before it applies, a checkpoint is the network's own
// canonical export (Network.DurableState), and recovery applies checkpoint +
// log tail (Network.Apply) through the same public entry points the live
// system uses, rebuilding the exact inference state (posteriors and digests
// match the uncrashed network bit-for-bit). A torn final frame — the
// half-written record a real crash leaves — is a clean log end; a corrupt
// mid-log frame is a hard WALCorruptError.
type (
	// WAL is the append-only write-ahead log a network journals to.
	WAL = wal.Log
	// WALOptions configures fsync policy, checkpoint cadence and warnings.
	WALOptions = wal.Options
	// WALStats are a log's monotone durability counters.
	WALStats = wal.Stats
	// WALRecoverReport summarizes a recovery (records replayed, torn bytes).
	WALRecoverReport = wal.RecoverReport
	// WALStorage abstracts the byte store beneath a log.
	WALStorage = wal.Storage
	// WALDirStorage stores the log and checkpoint as files in a directory.
	WALDirStorage = wal.DirStorage
	// WALMemStorage is the in-memory store with crash injection (tests).
	WALMemStorage = wal.MemStorage
	// WALSyncPolicy selects when appends fsync.
	WALSyncPolicy = wal.SyncPolicy
	// WALCorruptError reports a corrupt (non-torn) log or checkpoint.
	WALCorruptError = wal.CorruptError
)

// Fsync policies for WALOptions.Sync.
const (
	// WALSyncAlways fsyncs after every record (default; no committed
	// mutation is ever lost).
	WALSyncAlways = wal.SyncAlways
	// WALSyncGroup batches fsyncs (group commit): bounded, deterministic
	// loss window, near in-memory throughput.
	WALSyncGroup = wal.SyncGroup
	// WALSyncOff never fsyncs; the OS decides (tests and benchmarks).
	WALSyncOff = wal.SyncOff
)

// OpenWAL opens (or creates) the log held by st, scanning and validating any
// existing checkpoint and records. Attach it with WAL.AttachTo, or rebuild
// the persisted network with WAL.Recover.
func OpenWAL(st WALStorage, opts WALOptions) (*WAL, error) { return wal.Open(st, opts) }

// NewWALDirStorage opens directory-backed WAL storage, creating dir if needed.
func NewWALDirStorage(dir string) (*WALDirStorage, error) { return wal.NewDirStorage(dir) }

// NewWALMemStorage creates in-memory WAL storage with crash injection.
func NewWALMemStorage() *WALMemStorage { return wal.NewMemStorage() }

// ParseWALSyncPolicy parses "always", "group" or "off".
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DigestNetwork fingerprints a network's inference-relevant state; a
// recovered network's digest equals the original's.
func DigestNetwork(n *Network) string { return wal.DigestNetwork(n) }

// NewDurableSimulation is NewSimulation with every mutation journaled to lg
// (an empty, freshly opened log) — the WAL-on path cmd/pdmsload -wal uses.
func NewDurableSimulation(sc Scenario, lg *WAL) (*Simulation, error) {
	return sim.NewDurable(sc, lg)
}

// NewServer builds a query server reading snapshots from the network.
// Publish a snapshot (Network.PublishSnapshot) before the first Answer call.
func NewServer(n *Network, opts ServeOptions) *Server { return serve.New(n, opts) }

// ParseLoadSpec decodes a load spec from JSON, rejecting unknown fields.
func ParseLoadSpec(data []byte) (LoadSpec, error) { return sim.ParseLoadSpec(data) }

// TransportKind selects the message substrate a detection run uses (see
// DetectOptions.Transport and Scenario-level "transport").
type TransportKind = network.Kind

// Transport kinds. All produce identical results; they differ in execution
// model (one shard, parallel shards, real sockets) only.
const (
	// TransportSim is the one-shard deterministic simulator (default).
	TransportSim = network.KindSim
	// TransportSharded is the same simulator with DetectOptions.Shards
	// parallel shards, for very large networks.
	TransportSharded = network.KindSharded
	// TransportTCP is the loopback TCP transport: every message travels as
	// wire-encoded bytes through a real socket.
	TransportTCP = network.KindTCP
)

// Operation kinds for Op.Kind.
const (
	// Project keeps only the named attribute (π).
	Project = query.Project
	// Select filters on a LIKE predicate over the attribute (σ).
	Select = query.Select
)

// Storage granularities for DiscoverConfig (§4.1).
const (
	// FineGrained keeps one correctness variable per (mapping, attribute).
	FineGrained = core.FineGrained
	// CoarseGrained keeps one correctness variable per mapping, fed by a
	// multi-attribute comparison per structure.
	CoarseGrained = core.CoarseGrained
)

// CoarseKey returns the attribute key under which coarse-grained posteriors
// are reported.
func CoarseKey() Attribute { return core.CoarseKey() }

// NewNetwork creates an empty PDMS; directed selects directed mapping
// semantics (parallel-path evidence requires directed networks).
func NewNetwork(directed bool) *Network { return core.NewNetwork(directed) }

// NewSchema creates a schema from attribute names.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return schema.New(name, attrs...)
}

// MustNewSchema is like NewSchema but panics on error.
func MustNewSchema(name string, attrs ...Attribute) *Schema {
	return schema.MustNew(name, attrs...)
}

// NewQuery builds a validated query against a schema.
func NewQuery(s *Schema, ops ...Op) (Query, error) { return query.New(s, ops...) }

// MustNewQuery is like NewQuery but panics on error.
func MustNewQuery(s *Schema, ops ...Op) Query { return query.MustNew(s, ops...) }

// NewStore creates an empty document store for a schema.
func NewStore(s *Schema) (*Store, error) { return xmldb.NewStore(s) }

// IdentityPairs builds the identity correspondence map for a schema.
func IdentityPairs(s *Schema) map[Attribute]Attribute { return core.IdentityPairs(s) }

// Delta estimates Δ — the probability that two or more mapping errors
// compensate along a cycle — from the schema size (§4.5 of the paper).
func Delta(schemaSize int) float64 { return feedback.Delta(schemaSize) }

// PrecisionCurve scores judgments against thresholds (the Fig 12 curve).
func PrecisionCurve(items []Judgment, thetas []float64) []PrecisionPoint {
	return eval.PrecisionCurve(items, thetas)
}

// Values collects the distinct values of an attribute across records.
func Values(records []Record, a Attribute) []string { return xmldb.Values(records, a) }

// NewSimulation builds a scenario's initial network, ready to Run — the
// entry point for replaying churn timelines against the full stack.
func NewSimulation(sc Scenario) (*Simulation, error) { return sim.New(sc) }

// GenerateScenario builds a random but fully declarative churn scenario;
// the same config always yields the same scenario.
func GenerateScenario(cfg GenConfig) (Scenario, error) { return sim.Generate(cfg) }

// ParseScenario decodes a scenario from JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return sim.ParseScenario(data) }
