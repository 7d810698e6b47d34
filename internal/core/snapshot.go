package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/xmldb"
)

// This file implements the read side of the query-serving plane: detection
// publishes an immutable, epoch-stamped RoutingSnapshot via an atomic pointer
// swap, and any number of server goroutines route queries against it without
// ever blocking — or being blocked by — the belief-propagation rounds or
// churn maintenance that produce the next snapshot. A snapshot freezes
// everything routing needs: the θ-evaluated posterior of every (mapping,
// attribute) variable, the adjacency of the mapping overlay, and per-peer
// schema and store references. Mapping, Schema and Store objects are never
// mutated after installation (churn replaces mappings with fresh objects), so
// sharing the pointers is safe.
//
// Publication is delta-aware: when the previous snapshot froze the same
// structure (no peer, mapping or store change since — tracked by
// Network.structVersion) under the same policy, only the edges whose
// posteriors actually moved are rebuilt and everything else is shared
// pointer-for-pointer with the predecessor. The new snapshot then carries a
// SnapshotDelta naming the edges whose θ verdicts flipped, which the serve
// layer uses to revalidate cached answers instead of discarding them.
// Discovery, message resets and prior changes do not sever delta publication
// — the per-edge diff recomputes their effects — they only disable the
// TouchedEdges sharing fast path (Network.inferVersion).

// ExplicitZero is a sentinel for SnapshotOptions.DefaultTheta and
// SnapshotOptions.DefaultPosterior: the zero value of those fields keeps
// selecting the historical 0.5 default, so a policy of literally 0.0 — θ_a = 0
// routes through everything not ⊥-pinned — is requested with this sentinel.
// Any negative value (or NaN) is treated the same way.
const ExplicitZero = -1.0

// SnapshotOptions fixes the routing policy a snapshot is published under —
// the only routing-policy type. The θ gate is evaluated once at publication:
// walks only follow precomputed verdicts.
type SnapshotOptions struct {
	// Theta is the per-attribute semantic threshold θ_a; attributes not in
	// the map use DefaultTheta. Explicit zeros in the map are honoured as-is,
	// and a negative or NaN entry is θ_a = 0, as for DefaultTheta.
	Theta map[schema.Attribute]float64
	// DefaultTheta defaults to 0.5 when left at its zero value; use
	// ExplicitZero (or any negative value) for a true θ_a = 0 policy.
	DefaultTheta float64
	// DefaultPosterior is used for variables absent from the detection
	// result (mappings never covered by any structure). Defaults to 0.5 when
	// left at its zero value; use ExplicitZero for a true 0.0 default.
	DefaultPosterior float64
	// MaxHops bounds propagation. Defaults to the number of peers.
	MaxHops int
	// ForceFull disables delta publication: the snapshot is rebuilt from
	// scratch even when the previous one froze identical structure. Delta and
	// full publication produce structurally identical snapshots (the digest
	// oracle in snapshot_delta_test.go pins this); the switch exists for that
	// oracle and for publication-cost measurements.
	ForceFull bool
}

// resolveDefault maps the zero-value convention onto an explicit policy:
// 0 selects def, the ExplicitZero sentinel (any negative, or NaN) selects a
// true 0, anything else is taken verbatim.
func resolveDefault(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0 || math.IsNaN(v):
		return 0
	default:
		return v
	}
}

func (o SnapshotOptions) withDefaults(peers int) SnapshotOptions {
	o.Theta = resolveTheta(o.Theta)
	o.DefaultTheta = resolveDefault(o.DefaultTheta, 0.5)
	o.DefaultPosterior = resolveDefault(o.DefaultPosterior, 0.5)
	if o.MaxHops <= 0 {
		o.MaxHops = peers
	}
	return o
}

// resolveTheta applies resolveDefault's rule to the per-attribute entries
// (where 0 stays 0), copying the map only when an entry changes.
func resolveTheta(theta map[schema.Attribute]float64) map[schema.Attribute]float64 {
	for _, v := range theta {
		if resolveDefault(v, 0) != v {
			out := make(map[schema.Attribute]float64, len(theta))
			for a, v := range theta {
				out[a] = resolveDefault(v, 0)
			}
			return out
		}
	}
	return theta
}

// samePolicy reports whether two already-defaulted option sets publish under
// the same routing policy (ForceFull is a publication mechanism, not policy).
func samePolicy(a, b SnapshotOptions) bool {
	if a.DefaultTheta != b.DefaultTheta || a.DefaultPosterior != b.DefaultPosterior || a.MaxHops != b.MaxHops {
		return false
	}
	if len(a.Theta) != len(b.Theta) {
		return false
	}
	for k, v := range a.Theta {
		if bv, ok := b.Theta[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// attrVerdict is the precomputed θ-gate outcome for one (edge, source
// attribute) pair.
type attrVerdict uint8

const (
	// verdictDropped: the mapping provides no correspondence (⊥, §2).
	verdictDropped attrVerdict = iota
	// verdictBlocked: mapped, but the posterior does not clear θ_a (or the
	// variable is ⊥-pinned).
	verdictBlocked
	// verdictPass: mapped and the posterior clears θ_a.
	verdictPass
)

// Sig is a 512-bit bloom signature over mapping-edge IDs. Signatures compose
// by Or; two sets with disjoint signatures (Intersects false) are guaranteed
// disjoint, which is the direction cache revalidation relies on — a false
// intersection only costs a recomputation, never a wrong answer. 512 bits
// (rather than one word) keep the false-intersection rate low even for
// wide walks: a route that examined 50 edges sets ≲ 100 of 512 bits, so an
// unrelated verdict flip still proves disjointness ≈ 80% of the time, where
// a 64-bit signature would be saturated and invalidate everything.
type Sig [8]uint64

// Or folds o into s.
func (s *Sig) Or(o Sig) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Intersects reports whether the two signatures share any set bit.
func (s Sig) Intersects(o Sig) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// IsZero reports whether no bit is set (the empty edge set).
func (s Sig) IsZero() bool { return s == Sig{} }

// sigBits returns the bloom signature of one edge: two bits derived from
// independent halves of an FNV-1a hash of the edge ID.
func sigBits(id graph.EdgeID) Sig {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	var s Sig
	b1, b2 := h&511, (h>>32)&511
	s[b1>>6] |= 1 << (b1 & 63)
	s[b2>>6] |= 1 << (b2 & 63)
	return s
}

// snapEdge is one frozen outgoing mapping: destination, the immutable
// mapping object, and the θ verdict per source-schema attribute.
//
//pdms:immutable
type snapEdge struct {
	id       graph.EdgeID
	to       graph.PeerID
	mapping  *schema.Mapping
	verdicts map[schema.Attribute]attrVerdict
	// sig is the precomputed bloom signature of the edge ID, OR-ed into
	// RouteResult.Sig for every edge a frozen walk examines.
	sig Sig
	// passable is true if at least one attribute passes — edges failing it
	// can never be crossed and are pruned from the BFS frontier fast path.
	passable bool
}

// snapPeer is one peer's frozen serving state.
//
//pdms:immutable
type snapPeer struct {
	schema *schema.Schema
	store  *xmldb.Store
	out    []snapEdge // sorted by edge ID: the order RouteQuery examines them in
}

// RoutingSnapshot is an immutable, epoch-stamped view of the network for
// query serving. All methods are safe for unlimited concurrent use; nothing
// reachable from a snapshot is ever written after Publish returns it. A
// delta-published snapshot shares unchanged peers, edges and posterior maps
// with its predecessor — sharing is safe for exactly the same reason the
// mapping pointers are: nothing is ever written again. The
// snapshotimmutable analyzer (cmd/pdmsvet) enforces the no-write rule at
// compile time, here and in every importing package.
//
//pdms:immutable
type RoutingSnapshot struct {
	epoch         uint64
	structVersion uint64
	inferVersion  uint64
	opts          SnapshotOptions
	peers         map[graph.PeerID]*snapPeer
	order         []graph.PeerID
	mappings      map[graph.EdgeID]*schema.Mapping
	posteriors    map[graph.EdgeID]map[schema.Attribute]float64
	delta         *SnapshotDelta
}

// SnapshotDelta describes how a delta-published snapshot differs from its
// predecessor: the edges whose θ verdicts changed (the only changes that can
// alter a route), a compact bloom signature over them, and a bounded chain
// back through earlier deltas so caches can revalidate entries that are
// several publications old.
//
//pdms:immutable
type SnapshotDelta struct {
	fromEpoch uint64
	edges     []graph.EdgeID // sorted; edges with at least one verdict flip
	sig       Sig
	rebuilt   int // edges whose posterior maps were rebuilt (≥ len(edges))
	prev      *SnapshotDelta
	depth     int
}

// maxDeltaChain bounds how many predecessors a delta chain retains. Cache
// entries older than the chain simply fail revalidation and recompute.
const maxDeltaChain = 64

// FromEpoch returns the epoch of the predecessor the delta is relative to.
func (d *SnapshotDelta) FromEpoch() uint64 { return d.fromEpoch }

// ChangedEdges returns the IDs of the edges whose θ verdicts changed, sorted.
// The slice is shared: callers must not mutate it.
func (d *SnapshotDelta) ChangedEdges() []graph.EdgeID { return d.edges }

// Size returns the number of verdict-changed edges.
func (d *SnapshotDelta) Size() int { return len(d.edges) }

// Rebuilt returns the number of edges whose frozen state (verdicts or
// posterior map) was rebuilt rather than shared with the predecessor.
func (d *SnapshotDelta) Rebuilt() int { return d.rebuilt }

// Epoch returns the snapshot's publication epoch. Epochs increase by one per
// publication on a given network, starting at 1.
func (s *RoutingSnapshot) Epoch() uint64 { return s.epoch }

// Options returns the routing policy the snapshot was published under.
func (s *RoutingSnapshot) Options() SnapshotOptions { return s.opts }

// Delta returns how this snapshot differs from its predecessor, or nil when
// it was published from scratch (first publication, structural change,
// policy change, or ForceFull).
func (s *RoutingSnapshot) Delta() *SnapshotDelta { return s.delta }

// DeltaSince returns the union bloom signature of every θ-verdict change
// published after epoch `since` up to and including this snapshot. ok is
// false when the delta chain cannot prove coverage of the whole span — a
// full publication intervened, the chain was truncated, or since is ahead of
// this snapshot — in which case callers must assume everything changed.
func (s *RoutingSnapshot) DeltaSince(since uint64) (sig Sig, ok bool) {
	if since == s.epoch {
		return Sig{}, true
	}
	if since > s.epoch {
		return Sig{}, false
	}
	at := s.epoch
	for d := s.delta; d != nil; d = d.prev {
		if d.fromEpoch >= at {
			return Sig{}, false // defensive: a malformed chain proves nothing
		}
		sig.Or(d.sig)
		if d.fromEpoch == since {
			return sig, true
		}
		if d.fromEpoch < since {
			return Sig{}, false
		}
		at = d.fromEpoch
	}
	return Sig{}, false
}

// NumPeers returns the number of peers frozen in the snapshot.
func (s *RoutingSnapshot) NumPeers() int { return len(s.order) }

// PeerIDs returns the frozen peer IDs in network insertion order. The slice
// is shared: callers must not mutate it.
func (s *RoutingSnapshot) PeerIDs() []graph.PeerID { return s.order }

// HasPeer reports whether the snapshot contains the peer.
func (s *RoutingSnapshot) HasPeer(id graph.PeerID) bool {
	_, ok := s.peers[id]
	return ok
}

// Schema returns the frozen schema of a peer.
func (s *RoutingSnapshot) Schema(id graph.PeerID) (*schema.Schema, bool) {
	p, ok := s.peers[id]
	if !ok {
		return nil, false
	}
	return p.schema, true
}

// Store returns the frozen store reference of a peer, if it had one at
// publication time.
func (s *RoutingSnapshot) Store(id graph.PeerID) (*xmldb.Store, bool) {
	p, ok := s.peers[id]
	if !ok || p.store == nil {
		return nil, false
	}
	return p.store, true
}

// Mapping returns the frozen mapping object behind an edge.
func (s *RoutingSnapshot) Mapping(id graph.EdgeID) (*schema.Mapping, bool) {
	m, ok := s.mappings[id]
	return m, ok
}

// Posterior returns the frozen effective posterior for a mapping and
// attribute (⊥-pinned variables report 0), or def when the variable was
// never covered by evidence.
func (s *RoutingSnapshot) Posterior(m graph.EdgeID, a schema.Attribute, def float64) float64 {
	if mm, ok := s.posteriors[m]; ok {
		if p, ok := mm[a]; ok {
			return p
		}
	}
	return def
}

// Digest returns a deterministic SHA-256 digest of everything the snapshot
// freezes: policy, peer order, schemas, store presence, per-edge verdicts and
// posterior bits. The epoch stamp and publication mechanism are excluded, so
// a delta-published snapshot and a from-scratch republication of the same
// state digest identically — the structural oracle of the delta path.
//
//pdms:deterministic
func (s *RoutingSnapshot) Digest() string {
	h := sha256.New()
	d := digestWriter{h: h, b: make([]byte, 0, 8<<10)}
	d.line("opts")
	d.hex(math.Float64bits(s.opts.DefaultTheta))
	d.hex(math.Float64bits(s.opts.DefaultPosterior))
	d.b = strconv.AppendInt(append(d.b, '|'), int64(s.opts.MaxHops), 10)
	tks := make([]schema.Attribute, 0, len(s.opts.Theta))
	for a := range s.opts.Theta {
		tks = append(tks, a)
	}
	slices.Sort(tks)
	for _, a := range tks {
		d.line("theta")
		d.str(string(a))
		d.hex(math.Float64bits(s.opts.Theta[a]))
	}
	var attrs []schema.Attribute
	for _, id := range s.order {
		p := s.peers[id]
		d.line("peer")
		d.str(string(id))
		d.str(p.schema.Name())
		d.bool(p.store != nil)
		for i := range p.out {
			e := &p.out[i]
			d.line("edge")
			d.str(string(e.id))
			d.str(string(e.to))
			d.bool(e.passable)
			attrs = attrs[:0]
			for a := range e.verdicts {
				attrs = append(attrs, a)
			}
			slices.Sort(attrs)
			for _, a := range attrs {
				d.line("v")
				d.str(string(a))
				d.b = strconv.AppendUint(append(d.b, '|'), uint64(e.verdicts[a]), 10)
			}
			mm, ok := s.posteriors[e.id]
			if !ok {
				continue
			}
			attrs = attrs[:0]
			for a := range mm {
				attrs = append(attrs, a)
			}
			slices.Sort(attrs)
			for _, a := range attrs {
				d.line("p")
				d.str(string(a))
				d.hex(math.Float64bits(mm[a]))
			}
		}
	}
	d.flush()
	return hex.EncodeToString(h.Sum(nil))
}

// digestWriter renders Digest's lines into one reused buffer that is flushed
// into the hash whenever it fills: each line is a tag followed by
// '|'-separated fields and ends in '\n', the bytes the historical
// fmt.Fprintf rendering wrote.
type digestWriter struct {
	h io.Writer
	b []byte
}

// line ends the previous line, flushes a full buffer and starts a line with
// tag.
func (d *digestWriter) line(tag string) {
	if len(d.b) > 0 {
		d.b = append(d.b, '\n')
	}
	if len(d.b) >= cap(d.b)-512 {
		d.h.Write(d.b)
		d.b = d.b[:0]
	}
	d.b = append(d.b, tag...)
}

func (d *digestWriter) str(v string) { d.b = append(append(d.b, '|'), v...) }

func (d *digestWriter) hex(v uint64) { d.b = strconv.AppendUint(append(d.b, '|'), v, 16) }

func (d *digestWriter) bool(v bool) { d.b = strconv.AppendBool(append(d.b, '|'), v) }

// flush ends the last line and writes what is buffered.
func (d *digestWriter) flush() {
	if len(d.b) > 0 {
		d.b = append(d.b, '\n')
	}
	d.h.Write(d.b)
	d.b = d.b[:0]
}

// RouteQuery propagates q from the origin peer through the frozen overlay,
// breadth-first and deterministic, honouring the θ verdicts precomputed at
// publication. It is the only router: each peer is visited at most once
// (first arrival wins, outgoing mappings examined in edge-ID order), and
// sim.ReferenceRoute — the specification written against the live network's
// exported API — must agree with it visit for visit. It executes nothing:
// visits carry the hop-by-hop rewritten query and the mapping chain only, and
// callers execute Visit.Query at the peer's store (the serve layer checks it
// against the chain's rewrite, query.RewritesTo). The returned Sig covers
// every edge the walk examined, whether or not it was crossed.
func (s *RoutingSnapshot) RouteQuery(origin graph.PeerID, q query.Query) (RouteResult, error) {
	op, ok := s.peers[origin]
	if !ok {
		return RouteResult{}, fmt.Errorf("core: snapshot %d: unknown origin peer %q", s.epoch, origin)
	}
	if q.SchemaName != op.schema.Name() {
		return RouteResult{}, fmt.Errorf("core: snapshot %d: query schema %q does not match origin schema %q",
			s.epoch, q.SchemaName, op.schema.Name())
	}
	for _, o := range q.Ops {
		if !op.schema.Has(o.Attr) {
			return RouteResult{}, fmt.Errorf("core: snapshot %d: origin schema %q has no attribute %q",
				s.epoch, op.schema.Name(), o.Attr)
		}
	}

	// The visits double as the BFS queue: a peer is visited in the order it
	// was reached, so res.Visits[head:] are the peers still to expand.
	// Rewritten ops and Via chains are carved out of two shared arenas, each
	// visit's slice capped so that no later append can reach into it.
	res := RouteResult{Visits: make([]Visit, 1, 4)}
	res.Visits[0] = Visit{Peer: origin, Query: q}
	// visited holds the peers reached past the origin. It is made when the
	// walk first leaves the origin, which most walks never do (92–98% of
	// the benchmark's walks, PERFORMANCE.md); until then a lookup is a nil
	// check.
	var visited map[graph.PeerID]struct{}
	var attrBuf [8]schema.Attribute
	var ops []query.Op
	var vias []graph.EdgeID
	for head := 0; head < len(res.Visits); head++ {
		cur := res.Visits[head]
		if len(cur.Via) >= s.opts.MaxHops {
			continue
		}
		p := s.peers[cur.Peer]
		attrs := cur.Query.AppendAttributes(attrBuf[:0])
		for i := range p.out {
			e := &p.out[i]
			// Every examined edge is part of the answer's route signature:
			// a verdict flip on any of them — crossed, blocked or skipped
			// because its destination was already reached — can change what
			// the same walk would produce on a later snapshot.
			res.Sig.Or(e.sig)
			if _, seen := visited[e.to]; seen || e.to == origin {
				continue
			}
			if !passes(e, attrs, &res) {
				continue
			}
			if ops == nil {
				ops = make([]query.Op, 0, 4*len(q.Ops))
				vias = make([]graph.EdgeID, 0, 8)
			}
			start := len(ops)
			var whole bool
			if ops, whole = cur.Query.AppendRewrite(ops, e.mapping); !whole {
				ops = ops[:start]
				res.DroppedAttr++
				continue
			}
			next := Visit{Peer: e.to, Query: query.Query{SchemaName: e.mapping.Target().Name()}}
			if len(ops) > start {
				next.Query.Ops = ops[start:len(ops):len(ops)]
			}
			vstart := len(vias)
			vias = append(append(vias, cur.Via...), e.id)
			next.Via = vias[vstart:len(vias):len(vias)]
			res.Visits = append(res.Visits, next)
			if visited == nil {
				visited = make(map[graph.PeerID]struct{})
			}
			visited[e.to] = struct{}{}
		}
	}
	return res, nil
}

// passes applies the θ gate of edge e to attrs, the distinct attributes of
// the query at e's source, and counts the first rejection in res.
func passes(e *snapEdge, attrs []schema.Attribute, res *RouteResult) bool {
	for _, a := range attrs {
		switch e.verdicts[a] {
		case verdictDropped:
			res.DroppedAttr++
			return false
		case verdictBlocked:
			res.Blocked++
			return false
		}
	}
	return true
}

// PublishSnapshot freezes the network's current topology, stores and the
// detection result's posteriors into a RoutingSnapshot, stamps it with the
// next epoch and installs it as the network's current snapshot with a single
// atomic pointer swap. When the previous snapshot froze the same structure
// under the same policy, publication is a delta: only edges whose posteriors
// moved are rebuilt (guided by det.TouchedEdges when an incremental detection
// provides it, by bit-level comparison otherwise), everything else is shared,
// and the snapshot carries a SnapshotDelta for cache revalidation. It must be
// called from the goroutine that owns the network (the one running detection
// and churn); readers call Snapshot concurrently at any time.
//
//pdms:snapshot-builder
func (n *Network) PublishSnapshot(det DetectResult, opts SnapshotOptions) *RoutingSnapshot {
	opts = opts.withDefaults(n.NumPeers())
	prev := n.snap.Load()
	var snap *RoutingSnapshot
	if prev != nil && !opts.ForceFull && prev.structVersion == n.structVersion && samePolicy(prev.opts, opts) {
		snap = n.deltaSnapshot(prev, det, opts)
	} else {
		snap = n.fullSnapshot(det, opts)
	}
	snap.structVersion = n.structVersion
	snap.inferVersion = n.inferVersion
	snap.epoch = n.snapEpoch.Add(1)
	n.snap.Store(snap)
	return snap
}

// freezeAttr evaluates one (mapping, source attribute) variable for
// publication — the only place a θ verdict is decided: an attribute the
// mapping does not carry is dropped (⊥, and no posterior is frozen for it);
// otherwise the effective posterior (0 when ⊥-pinned) either clears θ_a or
// is blocked. It allocates nothing, so the delta diff can call it per
// attribute of every edge it examines.
func freezeAttr(p *Peer, eid graph.EdgeID, m *schema.Mapping, a schema.Attribute, det *DetectResult, opts *SnapshotOptions) (attrVerdict, float64) {
	if _, mapped := m.Map(a); !mapped {
		return verdictDropped, 0
	}
	pr := det.Posterior(eid, a, opts.DefaultPosterior)
	if p.Pinned(eid, a) {
		pr = 0
	}
	theta, ok := opts.Theta[a]
	if !ok {
		theta = opts.DefaultTheta
	}
	if pr <= theta {
		return verdictBlocked, pr
	}
	return verdictPass, pr
}

// freezeEdge builds the frozen state of one outgoing mapping of p: the
// verdict of every source attribute, the posterior of every mapped one, and
// whether any attribute passes.
func freezeEdge(p *Peer, eid graph.EdgeID, m *schema.Mapping, det *DetectResult, opts *SnapshotOptions) (verdicts map[schema.Attribute]attrVerdict, post map[schema.Attribute]float64, passable bool) {
	verdicts = make(map[schema.Attribute]attrVerdict, p.schema.Len())
	post = make(map[schema.Attribute]float64)
	for _, a := range p.schema.Attributes() {
		v, pr := freezeAttr(p, eid, m, a, det, opts)
		verdicts[a] = v
		if v != verdictDropped {
			post[a] = pr
		}
		passable = passable || v == verdictPass
	}
	return verdicts, post, passable
}

// fullSnapshot rebuilds every peer, edge and posterior map from scratch.
//
//pdms:snapshot-builder
func (n *Network) fullSnapshot(det DetectResult, opts SnapshotOptions) *RoutingSnapshot {
	snap := &RoutingSnapshot{
		opts:       opts,
		peers:      make(map[graph.PeerID]*snapPeer, len(n.order)),
		order:      append([]graph.PeerID(nil), n.order...),
		mappings:   make(map[graph.EdgeID]*schema.Mapping, len(n.mappings)),
		posteriors: make(map[graph.EdgeID]map[schema.Attribute]float64),
	}
	for _, id := range n.order {
		p := n.peers[id]
		sp := &snapPeer{schema: p.schema, store: p.store}
		outIDs := p.Outgoing()
		sp.out = make([]snapEdge, 0, len(outIDs))
		for _, eid := range outIDs {
			e, ok := n.topo.Edge(eid)
			if !ok {
				continue
			}
			m := p.out[eid]
			verdicts, post, passable := freezeEdge(p, eid, m, &det, &opts)
			if len(post) > 0 {
				snap.posteriors[eid] = post
			}
			snap.mappings[eid] = m
			sp.out = append(sp.out, snapEdge{id: eid, to: e.To, mapping: m,
				verdicts: verdicts, sig: sigBits(eid), passable: passable})
		}
		sort.Slice(sp.out, func(i, j int) bool { return sp.out[i].id < sp.out[j].id })
		snap.peers[id] = sp
	}
	return snap
}

// deltaSnapshot publishes against an unchanged structure: it starts from the
// predecessor, shares every top-level map until a change forces a copy, and
// rebuilds only edges whose recomputed verdicts or posterior bits differ.
// With det.TouchedEdges set (an incremental detection), only those edges are
// even examined — everything else is shared on the strength of the
// incremental-scope invariant (untouched components keep bit-identical
// posteriors); without it every edge is recomputed attr-by-attr (alloc-free
// for unchanged edges) and shared if bit-equal.
//
//pdms:snapshot-builder
func (n *Network) deltaSnapshot(prev *RoutingSnapshot, det DetectResult, opts SnapshotOptions) *RoutingSnapshot {
	snap := &RoutingSnapshot{
		opts:          opts,
		peers:         prev.peers,
		order:         prev.order,
		mappings:      prev.mappings,
		posteriors:    prev.posteriors,
		structVersion: prev.structVersion,
	}
	d := &SnapshotDelta{fromEpoch: prev.epoch}
	copiedPeers := false
	copiedPost := false

	visit := func(eid graph.EdgeID) {
		e, ok := n.topo.Edge(eid)
		if !ok {
			return
		}
		p := n.peers[e.From]
		sp := prev.peers[e.From]
		idx := sort.Search(len(sp.out), func(i int) bool { return sp.out[i].id >= eid })
		if idx >= len(sp.out) || sp.out[idx].id != eid {
			return
		}
		prevSE := &sp.out[idx]
		prevPost := prev.posteriors[eid]
		m := prevSE.mapping

		// Pass 1, alloc-free: recompute every attribute's verdict and
		// posterior and compare against the frozen predecessor.
		verdictChanged, postChanged := false, false
		for _, a := range p.schema.Attributes() {
			v, pr := freezeAttr(p, eid, m, a, &det, &opts)
			if v != verdictDropped {
				if old, ok := prevPost[a]; !ok || old != pr {
					postChanged = true
				}
			}
			if prevSE.verdicts[a] != v {
				verdictChanged = true
			}
		}
		if !verdictChanged && !postChanged {
			return
		}

		// Pass 2: rebuild the changed edge.
		d.rebuilt++
		verdicts, post, passable := freezeEdge(p, eid, m, &det, &opts)
		if postChanged {
			if !copiedPost {
				cp := make(map[graph.EdgeID]map[schema.Attribute]float64, len(prev.posteriors))
				for k, v := range prev.posteriors {
					cp[k] = v
				}
				snap.posteriors = cp
				copiedPost = true
			}
			if len(post) > 0 {
				snap.posteriors[eid] = post
			} else {
				delete(snap.posteriors, eid)
			}
		}
		if verdictChanged {
			if !copiedPeers {
				cp := make(map[graph.PeerID]*snapPeer, len(prev.peers))
				for k, v := range prev.peers {
					cp[k] = v
				}
				snap.peers = cp
				copiedPeers = true
			}
			cur := snap.peers[e.From]
			if cur == prev.peers[e.From] {
				cow := &snapPeer{schema: cur.schema, store: cur.store,
					out: append([]snapEdge(nil), cur.out...)}
				snap.peers[e.From] = cow
				cur = cow
			}
			cur.out[idx] = snapEdge{id: eid, to: prevSE.to, mapping: m,
				verdicts: verdicts, sig: prevSE.sig, passable: passable}
			d.edges = append(d.edges, eid)
			d.sig.Or(prevSE.sig)
		}
		// Otherwise the posterior moved without crossing θ: routes are
		// untouched, so only the frozen posterior map took the new bits and
		// the old snapEdge (and its owner) stay shared.
	}

	// The TouchedEdges fast path shares every untouched edge without looking
	// at it, which is only sound while nothing outside the touched set can
	// have moved — discovery, message resets and prior changes all can, and
	// all bump inferVersion. When the fast path is unavailable the diff
	// below recomputes every edge and catches those moves itself.
	if det.TouchedEdges != nil && prev.inferVersion == n.inferVersion {
		touched := make([]graph.EdgeID, 0, len(det.TouchedEdges))
		for eid := range det.TouchedEdges {
			touched = append(touched, eid)
		}
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		for _, eid := range touched {
			visit(eid)
		}
	} else {
		for _, id := range n.order {
			for _, eid := range n.peers[id].Outgoing() {
				visit(eid)
			}
		}
	}
	sort.Slice(d.edges, func(i, j int) bool { return d.edges[i] < d.edges[j] })
	if prev.delta != nil && prev.delta.depth < maxDeltaChain {
		d.prev = prev.delta
		d.depth = prev.delta.depth + 1
	}
	snap.delta = d
	return snap
}

// Snapshot returns the most recently published RoutingSnapshot, or nil if
// none has been published yet. It is a lock-free atomic load, safe to call
// from any goroutine at any time — including while detection or churn runs.
func (n *Network) Snapshot() *RoutingSnapshot {
	return n.snap.Load()
}
