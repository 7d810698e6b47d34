// Package serve is the concurrent query-serving plane of the PDMS: a Server
// answers queries end-to-end against the immutable, epoch-stamped
// RoutingSnapshots that detection publishes (core.Network.PublishSnapshot),
// so any number of serving goroutines run lock-free alongside the
// belief-propagation rounds and churn maintenance producing the next
// snapshot.
//
// Answering a query is: load the current snapshot (one atomic pointer read),
// route the query through the frozen θ-gated overlay
// (RoutingSnapshot.RouteQuery), rewrite it along each surviving mapping
// chain (query.RewriteChain), execute the rewritten query at every reachable
// peer that has a store (xmldb.Store.Execute), and merge the translated
// results into a canonically ordered, deduplicated record set. Answers are
// memoized in a sharded, coalescing LRU cache keyed by (origin, query); each
// entry remembers the latest epoch it is valid for plus the bloom signature
// of every edge its route examined, so a snapshot swap revalidates entries
// on access — an entry disjoint from the published deltas is rebound to the
// new epoch in place, and only answers the delta could actually have changed
// are recomputed (see cache.go).
//
// Every Answer is internally consistent with exactly one epoch: all state it
// derives from hangs off the single snapshot pointer loaded at entry.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/xmldb"
)

// Source yields the current routing snapshot. *core.Network implements it.
type Source interface {
	Snapshot() *core.RoutingSnapshot
}

// Options configures a Server.
type Options struct {
	// CacheSize is the approximate number of cached answers. 0 selects the
	// default (4096); negative disables caching entirely.
	CacheSize int
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	return o
}

// Answer is one served query result, consistent with exactly one snapshot
// epoch.
type Answer struct {
	// Epoch is the snapshot epoch every part of the answer derives from.
	Epoch uint64
	// Origin is the peer the query entered the network at.
	Origin graph.PeerID
	// Peers is the number of peers the query reached (origin included).
	Peers int
	// Answered is the number of reached peers that had a store and
	// contributed records.
	Answered int
	// Blocked and DroppedAttr are the θ-gate and ⊥-rule rejection counts of
	// the underlying route.
	Blocked     int
	DroppedAttr int
	// Records is the merged result set, deduplicated and in canonical
	// order: every record rendered with sorted attributes, records sorted
	// by that rendering.
	Records []xmldb.Record
	// Attrs are the attributes the original query referenced, in the
	// origin schema — recorded so result feedback can be classified
	// without re-parsing the query.
	Attrs []schema.Attribute
	// Paths is the answer's provenance: one entry per reached peer that
	// held a store, carrying the mapping chain the query traversed to get
	// there (already validated against query.RewriteChain during the walk)
	// and how many records the peer contributed. Answers are shared via the
	// cache; Paths and everything it references must never be mutated.
	Paths []Path
	// fp memoizes Fingerprint. Answers are immutable once computed and
	// shared across cache hits and revalidations, so the canonical digest
	// is paid once per snapshot walk, not once per served answer — without
	// it, a workload that fingerprints every answer re-renders the whole
	// record set on every cache hit.
	fp string
}

// Path is the provenance of one answered peer: the surviving mapping chain
// the query traversed from the origin, and the peer's contribution to the
// merged result set. An empty Via means the origin itself.
type Path struct {
	Peer    graph.PeerID
	Via     []graph.EdgeID
	Records int
}

// Fingerprint returns a stable SHA-256 hex digest of the answer's canonical
// record set (the bytes the differential oracle and the workload traces
// compare).
//
//pdms:deterministic
func (a Answer) Fingerprint() string {
	if a.fp != "" {
		return a.fp
	}
	sum := sha256.Sum256(CanonicalBytes(a.Records))
	return hex.EncodeToString(sum[:])
}

// Stats are monotone serving counters.
type Stats struct {
	// Served counts successfully answered queries.
	Served uint64
	// Errors counts failed ones.
	Errors uint64
	// CacheHits counts answers served from the cache without revalidation
	// work: the entry was already bound to the current epoch. Requests that
	// coalesced onto a concurrent computation of the same key count here
	// too.
	CacheHits uint64
	// Revalidated counts answers served from a cache entry that predated
	// the current snapshot but survived it: the published deltas were
	// disjoint from the entry's route signature, so it was rebound to the
	// new epoch instead of being recomputed.
	Revalidated uint64
	// Computed counts answers computed from a snapshot walk.
	Computed uint64
	// StaleEpochReads counts answers whose snapshot had already been
	// superseded by a newer publication by the time the answer completed —
	// reads that were consistent but not current.
	StaleEpochReads uint64
}

// Server answers queries against the current snapshot of a Source. All
// methods are safe for concurrent use.
type Server struct {
	src   Source
	cache *cache

	served, errors, hits, revalidated, computed, stale atomic.Uint64

	// Result-feedback queue (see feedback.go): classified observations wait
	// here until the network-owning goroutine drains them for ingestion.
	fbMu    sync.Mutex
	fbQueue []core.QueryFeedback
	fbStats FeedbackStats
}

// New builds a Server reading snapshots from src (typically a
// *core.Network).
func New(src Source, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{src: src, cache: newCache(opts.CacheSize)}
}

// Stats returns a consistent-enough point-in-time copy of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Served:          s.served.Load(),
		Errors:          s.errors.Load(),
		CacheHits:       s.hits.Load(),
		Revalidated:     s.revalidated.Load(),
		Computed:        s.computed.Load(),
		StaleEpochReads: s.stale.Load(),
	}
}

// Answer serves one query end-to-end from the current snapshot. The whole
// answer — routing, rewriting, execution, merging — derives from the single
// snapshot loaded on entry, so it is internally consistent with exactly that
// epoch even while new snapshots are being published concurrently.
func (s *Server) Answer(origin graph.PeerID, q query.Query) (Answer, error) {
	snap := s.src.Snapshot()
	if snap == nil {
		s.errors.Add(1)
		return Answer{}, fmt.Errorf("serve: no snapshot published yet")
	}
	var (
		ans  Answer
		kind hitKind
		err  error
	)
	if s.cache == nil {
		ans, _, err = computeAnswer(snap, origin, q)
	} else {
		// The key buffer lives on the stack: appendCacheKey fills it
		// without allocating (unless the rendering outgrows it) and the
		// cache only copies it to a string when inserting a new entry.
		var kbuf [256]byte
		key := appendCacheKey(kbuf[:0], origin, q)
		ans, kind, err = s.cache.getOrCompute(key, snap, origin, q, computeAnswer)
	}
	if err != nil {
		s.errors.Add(1)
		return Answer{}, err
	}
	switch kind {
	case hitFresh:
		s.hits.Add(1)
		ans.Epoch = snap.Epoch()
	case hitRevalidated:
		s.revalidated.Add(1)
		ans.Epoch = snap.Epoch()
	default:
		s.computed.Add(1)
	}
	s.served.Add(1)
	if cur := s.src.Snapshot(); cur != nil && cur.Epoch() != ans.Epoch {
		s.stale.Add(1)
	}
	return ans, nil
}

// appendCacheKey appends the (origin, query) cache key to b and returns the
// extended slice. The epoch is deliberately absent — validity is tracked per
// entry and moved forward by revalidation — and nothing here allocates, so a
// cache hit costs zero allocations end to end (see BenchmarkAnswerHit).
// Query.AppendTo is injective enough: schema name, op kinds, attributes and
// literals all appear verbatim, and origin cannot forge the separator into a
// query because queries never start with NUL.
func appendCacheKey(b []byte, origin graph.PeerID, q query.Query) []byte {
	b = append(b, origin...)
	b = append(b, 0)
	return q.AppendTo(b)
}

// computeAnswer performs the uncached snapshot walk: route, check each
// surviving chain against the route's rewrite, execute, merge. The second
// return value is the route's bloom signature — the cache stores it beside
// the answer to decide survivability across snapshot swaps.
func computeAnswer(snap *core.RoutingSnapshot, origin graph.PeerID, q query.Query) (Answer, core.Sig, error) {
	route, err := snap.RouteQuery(origin, q)
	if err != nil {
		return Answer{}, core.Sig{}, err
	}
	ans := Answer{
		Epoch:       snap.Epoch(),
		Origin:      origin,
		Peers:       len(route.Visits),
		Blocked:     route.Blocked,
		DroppedAttr: route.DroppedAttr,
		Attrs:       q.Attributes(),
	}
	ans.Paths = make([]Path, 0, len(route.Visits))
	var merged []xmldb.Record
	var chainBuf [16]*schema.Mapping
	for _, v := range route.Visits {
		st, ok := snap.Store(v.Peer)
		if !ok {
			continue
		}
		chain := chainBuf[:0]
		for _, eid := range v.Via {
			m, ok := snap.Mapping(eid)
			if !ok {
				return Answer{}, core.Sig{}, fmt.Errorf("serve: epoch %d: route to %q crosses unknown mapping %q",
					snap.Epoch(), v.Peer, eid)
			}
			chain = append(chain, m)
		}
		if !q.RewritesTo(v.Query, chain...) {
			// RouteQuery only crosses mappings that preserve every query
			// attribute, and rewrites hop by hop with the same mappings —
			// any disagreement here means the snapshot is torn.
			_, dropped := q.RewriteChain(chain...)
			return Answer{}, core.Sig{}, fmt.Errorf("serve: epoch %d: chain rewrite to %q disagrees with the route (%v dropped)",
				snap.Epoch(), v.Peer, dropped)
		}
		recs, err := st.Execute(v.Query)
		if err != nil {
			return Answer{}, core.Sig{}, fmt.Errorf("serve: epoch %d: executing at %q: %w", snap.Epoch(), v.Peer, err)
		}
		if len(recs) > 0 {
			ans.Answered++
			if merged == nil {
				merged = recs // Execute's result is fresh: adopt it
			} else {
				merged = append(merged, recs...)
			}
		}
		ans.Paths = append(ans.Paths, Path{Peer: v.Peer, Via: v.Via, Records: len(recs)})
	}
	ans.Records, ans.fp = canonicalFingerprinted(merged)
	return ans, route.Sig, nil
}

// Canonical deduplicates records and orders them canonically: each record
// is rendered with xmldb.Record.CanonicalString (attributes sorted, values
// in stored order) and records sort by that rendering. The input is not
// mutated.
//
//pdms:deterministic
func Canonical(records []xmldb.Record) []xmldb.Record {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	keys := sc.order(records)
	out := make([]xmldb.Record, len(keys))
	for i, k := range keys {
		out[i] = records[k.rec]
	}
	return out
}

// CanonicalBytes renders a canonical record set to one stable byte string:
// every record's canonical rendering followed by '\n', in canonical order.
//
//pdms:deterministic
func CanonicalBytes(records []xmldb.Record) []byte {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	return append([]byte{}, sc.render(sc.order(records))...)
}

// canonicalFingerprinted canonicalizes a merged record set in place and
// digests it in the same pass: the sort keys are exactly the bytes
// CanonicalBytes would render, so the returned fingerprint equals
// sha256(CanonicalBytes(records)) without rendering anything twice. The
// result reuses the records slice, which the caller owns.
func canonicalFingerprinted(records []xmldb.Record) ([]xmldb.Record, string) {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	keys := sc.order(records)
	sc.recs = append(sc.recs[:0], records...)
	out := records[:len(keys)]
	for i, k := range keys {
		out[i] = sc.recs[k.rec]
	}
	clear(records[len(keys):])
	clear(sc.recs)
	if out == nil {
		out = []xmldb.Record{}
	}
	sum := sha256.Sum256(sc.render(keys))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return out, string(hx[:])
}

// canonScratch holds one canonical merge's buffers: every record rendered
// back to back into buf, each followed by '\n', and one key per record
// locating its rendering. Pooled, so a merge allocates only what it returns.
type canonScratch struct {
	buf  []byte
	keys []canonKey
	out  []byte
	recs []xmldb.Record // the input order while a merge permutes in place
}

// canonKey locates record rec's rendering at buf[start:end]; its '\n' is
// buf[end].
type canonKey struct{ start, end, rec int }

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// order renders the records and returns their keys in canonical order,
// duplicates removed (the first record in input order stays). The result
// aliases sc.keys.
func (sc *canonScratch) order(records []xmldb.Record) []canonKey {
	sc.buf, sc.keys = sc.buf[:0], sc.keys[:0]
	for i, r := range records {
		start := len(sc.buf)
		sc.buf = r.AppendCanonical(sc.buf)
		sc.keys = append(sc.keys, canonKey{start, len(sc.buf), i})
		sc.buf = append(sc.buf, '\n')
	}
	buf := sc.buf
	slices.SortFunc(sc.keys, func(a, b canonKey) int {
		if c := bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]); c != 0 {
			return c
		}
		return a.rec - b.rec
	})
	uniq := sc.keys[:0]
	for _, k := range sc.keys {
		if n := len(uniq); n > 0 && bytes.Equal(buf[k.start:k.end], buf[uniq[n-1].start:uniq[n-1].end]) {
			continue
		}
		uniq = append(uniq, k)
	}
	return uniq
}

// render concatenates the keyed renderings, each with its '\n', into
// sc.out and returns it.
func (sc *canonScratch) render(keys []canonKey) []byte {
	sc.out = sc.out[:0]
	for _, k := range keys {
		sc.out = append(sc.out, sc.buf[k.start:k.end+1]...)
	}
	return sc.out
}
