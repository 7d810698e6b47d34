// Package core implements the paper's contribution: fully decentralized
// detection of erroneous schema mappings in a Peer Data Management System by
// embedded probabilistic message passing (§4).
//
// A Network owns the peers, their schemas and the directed (or undirected)
// topology of pairwise mappings. Each peer stores only the fraction of the
// global factor graph that touches its own outgoing mappings (§4.1): one
// binary correctness variable per (mapping, attribute) it owns, a prior
// factor per variable, and a replica of every feedback factor — cycle or
// parallel-path evidence — its variables participate in. Peers exchange
// remote messages µ_{p→f}(m) (§4.3) over a simulated transport and update
// posteriors locally; no central component ever holds the whole model.
//
// Evidence can be gathered two ways: structurally, by enumerating cycles and
// parallel paths on the known topology (the oracle used by experiments), or
// by the paper's probe flooding with a TTL (§3.2.1), implemented on the same
// transport as the inference messages.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/xmldb"
)

// Network is a PDMS: peers, schemas, mappings and the shared transport.
// Networks are not safe for concurrent mutation; detection runs are
// sequential and deterministic. The one concurrent surface is the serving
// plane: PublishSnapshot installs an immutable RoutingSnapshot with an atomic
// pointer swap and Snapshot loads it lock-free from any goroutine.
type Network struct {
	// The //pdms:durable fields are the WAL-persisted surface: the journal
	// analyzer (cmd/pdmsvet) requires every exported method writing one to
	// journal a Mutation first.
	directed bool
	topo     *graph.Graph                     //pdms:durable
	peers    map[graph.PeerID]*Peer           //pdms:durable
	order    []graph.PeerID                   //pdms:durable (insertion order for deterministic iteration)
	mappings map[graph.EdgeID]*schema.Mapping //pdms:durable
	// pinRecs remembers which structure justified each ⊥ pin so churn can
	// retract pins whose structures dissolved (see churn.go).
	pinRecs []pinRecord //pdms:durable
	// fbFactors indexes the installed query-feedback factors by canonical
	// observation key, and fbDirty marks the variables touched by feedback
	// since the last detection — the scope of the next incremental
	// re-detect (see feedback_ingest.go).
	fbFactors map[string]*fbFactor //pdms:durable
	fbDirty   map[varKey]bool
	// fbTrust is the sparse per-reporter trust map (absent = full trust),
	// recomputed from the factors' tallies after every feedback mutation;
	// fbOpts remembers the last journaled batch's post-default options, so
	// retractions triggered outside an ingestion (RemovePeer) refresh factors
	// under the same weighting regime and DurableState exports the feedback
	// under the options it was ingested with.
	fbTrust map[graph.PeerID]float64
	fbOpts  FeedbackOptions //pdms:durable
	// discovered is the configuration of the last journaled discovery pass
	// (nil before the first) and pending the mappings added since the pass
	// that last covered them — what DurableState needs to place each
	// mapping before or after its one MutDiscover record (see durable.go).
	discovered *DiscoverConfig       //pdms:durable
	pending    map[graph.EdgeID]bool //pdms:durable

	// Serving plane (snapshot.go): the current published snapshot and the
	// monotone epoch counter stamping each publication, plus two version
	// counters gating delta publication. structVersion counts hard
	// structural mutations — peers, mappings, stores — that change the
	// frozen shape itself; any bump forces the next publication to rebuild
	// from scratch. inferVersion counts mutations that leave the shape alone
	// but can move posteriors or pins outside any reported touched set —
	// discovery, message resets, prior changes; a bump only disables the
	// TouchedEdges fast path (the diff-based delta recomputes every edge and
	// sees those moves itself). Feedback ingestion bumps neither: its
	// effects are confined to the dirty variables an incremental detection
	// reports as touched, which is what makes delta publication sound.
	snap          atomic.Pointer[RoutingSnapshot]
	snapEpoch     atomic.Uint64
	structVersion uint64
	inferVersion  uint64

	// Durability plane (mutation.go): the attached write-ahead journal, if
	// any, and the first append failure seen by a void mutator.
	wal    Journal
	walErr error
}

// NewNetwork creates an empty PDMS. directed selects directed mappings
// (§3.3) versus undirected ones (§3.2).
func NewNetwork(directed bool) *Network {
	var topo *graph.Graph
	if directed {
		topo = graph.NewDirected()
	} else {
		topo = graph.NewUndirected()
	}
	return &Network{
		directed: directed,
		topo:     topo,
		peers:    make(map[graph.PeerID]*Peer),
		mappings: make(map[graph.EdgeID]*schema.Mapping),
		pending:  make(map[graph.EdgeID]bool),
	}
}

// bumpStruct records a structural mutation that invalidates delta
// publication entirely: the next PublishSnapshot after a bump rebuilds from
// scratch. Called only from the network-owning goroutine, like every mutator.
func (n *Network) bumpStruct() { n.structVersion++ }

// bumpInfer records an inference-state mutation — discovery, message resets,
// prior changes — that can move posteriors or pins without a corresponding
// TouchedEdges report. It leaves diff-based delta publication available and
// only disables the TouchedEdges sharing fast path.
func (n *Network) bumpInfer() { n.inferVersion++ }

// Directed reports whether mappings are directed.
func (n *Network) Directed() bool { return n.directed }

// Topology returns the underlying mapping graph (shared, do not mutate).
func (n *Network) Topology() *graph.Graph { return n.topo }

// AddPeer registers a database with its schema.
func (n *Network) AddPeer(id graph.PeerID, s *schema.Schema) (*Peer, error) {
	if id == "" {
		return nil, fmt.Errorf("core: empty peer id")
	}
	if s == nil {
		return nil, fmt.Errorf("core: peer %q: nil schema", id)
	}
	if _, dup := n.peers[id]; dup {
		return nil, fmt.Errorf("core: duplicate peer %q", id)
	}
	if err := n.journal(Mutation{
		Kind:       MutAddPeer,
		Peer:       id,
		SchemaName: s.Name(),
		Attrs:      s.Attributes(),
	}); err != nil {
		return nil, err
	}
	p := &Peer{
		id:     id,
		schema: s,
		net:    n,
		out:    make(map[graph.EdgeID]*schema.Mapping),
		vars:   make(map[varKey]*varState),
		evs:    make(map[string]*evReplica),
		pinned: make(map[varKey]int),
	}
	n.peers[id] = p
	n.order = append(n.order, id)
	n.topo.AddPeer(id)
	n.bumpStruct()
	return p, nil
}

// MustAddPeer is like AddPeer but panics on error.
func (n *Network) MustAddPeer(id graph.PeerID, s *schema.Schema) *Peer {
	p, err := n.AddPeer(id, s)
	if err != nil {
		panic(err)
	}
	return p
}

// Peer returns the peer with the given ID.
func (n *Network) Peer(id graph.PeerID) (*Peer, bool) {
	p, ok := n.peers[id]
	return p, ok
}

// SetSelfPromote marks (or clears) a peer as a self-promoting adversary: its
// outgoing remote µ-messages are replaced at the transport boundary with the
// claim that its mapping is certainly correct. Returns false for unknown
// peers. The flag is not journaled — it models a liar on the wire, not
// durable network state.
func (n *Network) SetSelfPromote(id graph.PeerID, v bool) bool {
	p, ok := n.peers[id]
	if !ok {
		return false
	}
	p.selfPromote = v
	return true
}

// Peers returns all peers in insertion order.
func (n *Network) Peers() []*Peer {
	out := make([]*Peer, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.peers[id])
	}
	return out
}

// NumPeers returns the number of peers.
func (n *Network) NumPeers() int { return len(n.order) }

// AddMapping declares a pairwise mapping from peer `from` to peer `to` with
// the given attribute correspondences. The mapping is owned by (stored at)
// the from-peer, matching the per-hop routing behaviour of §2. Both peers
// must exist; every correspondence must respect the two schemas.
func (n *Network) AddMapping(id graph.EdgeID, from, to graph.PeerID, pairs map[schema.Attribute]schema.Attribute) (*schema.Mapping, error) {
	pf, ok := n.peers[from]
	if !ok {
		return nil, fmt.Errorf("core: mapping %q: unknown peer %q", id, from)
	}
	pt, ok := n.peers[to]
	if !ok {
		return nil, fmt.Errorf("core: mapping %q: unknown peer %q", id, to)
	}
	m, err := schema.NewMapping(string(id), pf.schema, pt.schema)
	if err != nil {
		return nil, err
	}
	// Deterministic insertion order for reproducibility of error messages.
	attrs := make([]schema.Attribute, 0, len(pairs))
	for a := range pairs {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	for _, a := range attrs {
		if err := m.Add(a, pairs[a]); err != nil {
			return nil, err
		}
	}
	// Validate what the topology would reject, so the journal only ever
	// sees a mutation that applies.
	if err := n.topo.CheckEdge(id, from, to); err != nil {
		return nil, err
	}
	if err := n.journal(mappingRecord(id, from, to, m)); err != nil {
		return nil, err
	}
	n.topo.MustAddEdge(id, from, to)
	n.pending[id] = true
	n.mappings[id] = m
	pf.out[id] = m
	n.bumpStruct()
	return m, nil
}

// MustAddMapping is like AddMapping but panics on error.
func (n *Network) MustAddMapping(id graph.EdgeID, from, to graph.PeerID, pairs map[schema.Attribute]schema.Attribute) *schema.Mapping {
	m, err := n.AddMapping(id, from, to, pairs)
	if err != nil {
		panic(err)
	}
	return m
}

// IdentityPairs builds the identity correspondence map for a schema —
// convenient for synthetic topologies where all schemas share attributes.
func IdentityPairs(s *schema.Schema) map[schema.Attribute]schema.Attribute {
	out := make(map[schema.Attribute]schema.Attribute, s.Len())
	for _, a := range s.Attributes() {
		out[a] = a
	}
	return out
}

// RemoveMapping drops a mapping from the network (churn, §4.4). Every
// evidence factor and ⊥ pin derived from a structure through the mapping is
// retracted immediately at every peer, so posteriors never reference a
// mapping that no longer exists; evidence from surviving structures is kept.
func (n *Network) RemoveMapping(id graph.EdgeID) {
	e, ok := n.topo.Edge(id)
	if !ok {
		return
	}
	// Journal failure is sticky (JournalError); the removal still proceeds
	// so the in-memory network never wedges on a sick log.
	n.journal(Mutation{Kind: MutRemoveMapping, Edge: id})
	n.topo.RemoveEdge(id)
	delete(n.mappings, id)
	delete(n.pending, id)
	if p, ok := n.peers[e.From]; ok {
		delete(p.out, id)
	}
	n.dropEvidenceFor(map[graph.EdgeID]bool{id: true})
	// The retraction changed the structural votes trust majorities anchor
	// on; surviving feedback factors must re-weight before the next read.
	n.resyncTrust()
	n.bumpStruct()
}

// Mapping returns the schema mapping for a topology edge.
func (n *Network) Mapping(id graph.EdgeID) (*schema.Mapping, bool) {
	m, ok := n.mappings[id]
	return m, ok
}

// Resolver adapts the network to the feedback layer.
func (n *Network) Resolver() func(graph.EdgeID) (*schema.Mapping, bool) {
	return func(id graph.EdgeID) (*schema.Mapping, bool) { return n.Mapping(id) }
}

// Owner returns the peer owning (departing) mapping id.
func (n *Network) Owner(id graph.EdgeID) (*Peer, bool) {
	e, ok := n.topo.Edge(id)
	if !ok {
		return nil, false
	}
	p, ok := n.peers[e.From]
	return p, ok
}

// varKey identifies a correctness variable: a mapping and the attribute (in
// the mapping's source schema) it is judged on — the fine granularity of
// §4.1.
type varKey struct {
	Mapping graph.EdgeID
	Attr    schema.Attribute
}

// less is the canonical variable order: mapping, then attribute.
func (k varKey) less(o varKey) bool {
	if k.Mapping != o.Mapping {
		return k.Mapping < o.Mapping
	}
	return k.Attr < o.Attr
}

// Peer is one database in the PDMS together with the fraction of the global
// factor graph it stores (§4.1).
type Peer struct {
	id     graph.PeerID
	schema *schema.Schema
	net    *Network
	out    map[graph.EdgeID]*schema.Mapping //pdms:durable
	store  *xmldb.Store

	// Local factor-graph fragment. pinned counts, per variable, how many
	// discovered structures justify the ⊥ pin — reference counting lets
	// churn retract exactly the pins whose structures dissolved.
	vars   map[varKey]*varState
	evs    map[string]*evReplica
	pinned map[varKey]int
	// varKeys caches sortedVarKeys; every write to p.vars must clear it
	// (installEvidence, resetInference).
	varKeys []varKey

	// Prior beliefs (§4.4): current prior per variable and the evidence
	// samples it is the running mean of. Lazily allocated.
	priors  map[varKey]float64   //pdms:durable
	samples map[varKey][]float64 //pdms:durable

	// selfPromote marks an adversarial peer that lies on the wire: every
	// remote µ-message it emits claims its mapping is certainly correct,
	// while its local replica copies stay honest — manipulation at the
	// transport/core boundary. Attack instrumentation for the adversarial
	// scenarios; deliberately not journaled (replaying a WAL reproduces the
	// honest network, so scenarios combining self-promotion with crash
	// recovery are rejected by the sim layer).
	selfPromote bool
}

// ID returns the peer's identifier.
func (p *Peer) ID() graph.PeerID { return p.id }

// Schema returns the peer's schema.
func (p *Peer) Schema() *schema.Schema { return p.schema }

// Outgoing returns the IDs of the peer's outgoing mappings, sorted.
func (p *Peer) Outgoing() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(p.out))
	for id := range p.out {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AttachStore attaches a document store to the peer. The store's schema must
// be the peer's schema.
func (p *Peer) AttachStore(st *xmldb.Store) error {
	if st == nil {
		return fmt.Errorf("core: peer %q: nil store", p.id)
	}
	if st.Schema() != p.schema {
		return fmt.Errorf("core: peer %q: store schema %q differs from peer schema %q",
			p.id, st.Schema().Name(), p.schema.Name())
	}
	p.store = st
	p.net.bumpStruct()
	return nil
}

// Store returns the peer's document store, if any.
func (p *Peer) Store() (*xmldb.Store, bool) {
	return p.store, p.store != nil
}
