package serve

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
)

// cache is a sharded LRU result cache with in-flight coalescing: concurrent
// requests for the same key block on the first requester's computation
// instead of recomputing, so the number of computations per key is exactly
// one as long as the entry is not evicted. Keys are (origin, query) — no
// epoch: every completed entry carries the latest epoch its answer is known
// valid for, and a snapshot swap revalidates entries on access instead of
// abandoning them. An entry whose route signature is disjoint from the
// swap's delta (RoutingSnapshot.DeltaSince) is rebound to the new epoch in
// place; only entries the delta actually touches — or entries a full
// republication orphans — are recomputed.
//
// The size budget is global: a resident count shared by the shards admits
// every key distribution up to `size` completed entries, and eviction only
// starts once the cache as a whole is over budget, so a skewed distribution
// can never evict while the cache is globally under capacity. Eviction
// prefers stale-epoch entries: an entry is only ever (re)bound to the
// current epoch by an operation that also fronts it in its shard's LRU, so
// within a shard the stale entries form a suffix at the LRU back (modulo
// snapshot-swap races) and checking the back entry per shard finds them in
// O(1). Current-epoch entries are evicted only when no stale entry is left
// anywhere.
type cache struct {
	shards []cacheShard
	// size is the global budget; total counts completed resident entries
	// across all shards (in-flight computations are not evictable and not
	// counted).
	size  int
	total atomic.Int64
}

const cacheShards = 16

type cacheShard struct {
	mu sync.Mutex
	// entries holds both completed entries (elem != nil, in the LRU list)
	// and in-flight ones (elem == nil, not evictable yet).
	entries map[string]*cacheEntry
	lru     *list.List // front = most recent; values are *cacheEntry
	// floor is a lower bound on the epochs of the shard's resident entries
	// (math.MaxUint64 while it has none). It is written under mu only:
	// lowered by every insertion, raised to the exact minimum by a stale
	// sweep that walked the whole shard and found nothing stale. Rebinding
	// only raises an entry's epoch, so it never breaks the bound. Eviction
	// reads it without the lock to skip shards that cannot hold a stale
	// entry.
	floor atomic.Uint64
}

type cacheEntry struct {
	key   string
	ready sync.WaitGroup // done once ans/sig/err are set
	ans   Answer
	// sig is the answer's route signature: the bloom bits of every edge the
	// frozen walk examined. Immutable once ready is done.
	sig core.Sig
	err error
	// epoch is the latest snapshot epoch the answer is known valid for. It
	// starts at the computing epoch and moves forward on revalidation; it is
	// the only mutable field of a completed entry, which is why it is
	// atomic — readers hold no lock.
	epoch atomic.Uint64
	elem  *list.Element // nil while in flight
}

// hitKind classifies how getOrCompute satisfied a request.
type hitKind uint8

const (
	// hitMiss: computed here (no entry, or the entry was stale and replaced).
	hitMiss hitKind = iota
	// hitFresh: served from an entry already bound to the caller's epoch.
	hitFresh
	// hitRevalidated: served from an entry bound to an older epoch whose
	// route signature was disjoint from the published deltas — rebound.
	hitRevalidated
	// hitBypass: computed here without touching the cache, because the
	// resident entry was bound to a newer epoch than the caller's snapshot
	// (a publication raced the lookup).
	hitBypass
)

// revalidateHook, when set by a test, runs between a successful DeltaSince
// proof and the rebinding CAS, where concurrent revalidations of one entry
// race.
var revalidateHook func()

// computeFn computes an answer against one snapshot and returns it with its
// route signature. Package-level functions (computeAnswer) satisfy it
// without a closure allocation on the lookup path.
type computeFn func(snap *core.RoutingSnapshot, origin graph.PeerID, q query.Query) (Answer, core.Sig, error)

// newCache builds a cache with `size` total entries (0 disables).
func newCache(size int) *cache {
	if size <= 0 {
		return nil
	}
	c := &cache{shards: make([]cacheShard, cacheShards), size: size}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].lru = list.New()
		c.shards[i].floor.Store(math.MaxUint64)
	}
	return c
}

// shardIndex hashes the key with FNV-1a, inlined: the hash sits on the
// serving hot path (every cache lookup), where a hash.Hash32 allocation
// per call would dominate the hit cost.
func shardIndex(key []byte) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % cacheShards)
}

// getOrCompute returns the answer for key valid at snap's epoch: a fresh
// cached answer, a revalidated one (the entry predates the epoch but no
// published delta intersects its route signature), or a newly computed one —
// waiting on an in-flight computation of the same key if one exists. The key
// is only materialized to a string when an entry must be inserted, so the
// caller can pass a stack buffer and the hit path performs no allocation.
// Errors are never cached, and a panicking compute is converted into an
// error: the entry must always be finalized and its ready group done, or
// every later request for the key would block on it forever.
func (c *cache) getOrCompute(key []byte, snap *core.RoutingSnapshot, origin graph.PeerID, q query.Query, compute computeFn) (Answer, hitKind, error) {
	epoch := snap.Epoch()
	si := shardIndex(key)
	s := &c.shards[si]
	for {
		s.mu.Lock()
		e, ok := s.entries[string(key)]
		if !ok {
			break // miss: insert below, still holding the shard lock
		}
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		e.ready.Wait()
		if e.err != nil {
			// Coalesced onto a computation that failed; the finalizer has
			// already removed the entry.
			return e.ans, hitFresh, e.err
		}
		ee := e.epoch.Load()
		if ee == epoch {
			return e.ans, hitFresh, nil
		}
		if ee > epoch {
			// The entry outpaced our snapshot. Answer from our own snapshot
			// without touching the cache: replacing a newer entry with an
			// older answer would move the cache backwards.
			ans, _, err := compute(snap, origin, q)
			return ans, hitBypass, err
		}
		if sig, covered := snap.DeltaSince(ee); covered && !sig.Intersects(e.sig) {
			// No θ verdict changed on any edge this answer's walk examined
			// between ee and epoch: the bytes are still exact, only the
			// stamp moves. A lost CAS means a concurrent request rebound
			// the entry to this epoch or a newer one — just as good, and
			// that request counts the revalidation: this one is a hit.
			if revalidateHook != nil {
				revalidateHook()
			}
			if e.epoch.CompareAndSwap(ee, epoch) {
				return e.ans, hitRevalidated, nil
			}
			return e.ans, hitFresh, nil
		}
		// Stale: replace the entry with a fresh in-flight computation. If a
		// concurrent request already replaced it, loop and join theirs.
		s.mu.Lock()
		if cur, live := s.entries[e.key]; !live || cur != e {
			s.mu.Unlock()
			continue
		}
		if e.elem != nil {
			s.lru.Remove(e.elem)
			c.total.Add(-1)
		}
		delete(s.entries, e.key)
		break
	}
	e := &cacheEntry{key: string(key)}
	e.ready.Add(1)
	s.entries[e.key] = e
	s.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				e.ans, e.err = Answer{}, fmt.Errorf("serve: answer computation panicked: %v", r)
			}
			s.mu.Lock()
			if e.err != nil {
				delete(s.entries, e.key)
			} else {
				e.elem = s.lru.PushFront(e)
				c.total.Add(1)
				if ep := e.epoch.Load(); ep < s.floor.Load() {
					s.floor.Store(ep)
				}
			}
			s.mu.Unlock()
			e.ready.Done()
			c.enforceBudget(si, epoch)
		}()
		var sig core.Sig
		e.ans, sig, e.err = compute(snap, origin, q)
		e.sig = sig
		e.epoch.Store(e.ans.Epoch)
	}()
	return e.ans, hitMiss, e.err
}

// enforceBudget evicts entries while the cache is over its global size,
// scanning shards round-robin starting at the inserter's successor — the
// inserter's own shard comes last, so a freshly inserted entry that is its
// shard's only resident never evicts itself while older entries elsewhere
// survive. The first sweep takes only stale-epoch entries (any entry bound
// to an epoch before `live`): it skips, without locking, every shard whose
// floor proves it holds none, and otherwise evicts the shard's least recent
// stale entry. Rebinding and insertion both front an entry, so the stale
// entries of a shard sit at its LRU back and the walk from the back stops at
// once; a walk that finds none raises the floor, so until the next
// publication the shard is skipped. Only when no shard yields a stale entry
// does a second sweep fall back to plain least-recent eviction, so a
// just-revalidated hot entry is never sacrificed while a dead epoch still
// occupies budget. At most one shard lock is held at a time, so concurrent
// inserters can never deadlock; a full round of unproductive shards ends
// each sweep (another goroutine already evicted on our behalf).
func (c *cache) enforceBudget(start int, live uint64) {
	for _, staleOnly := range [2]bool{true, false} {
		idle := 0
		for i := 1; c.total.Load() > int64(c.size) && idle < cacheShards; i++ {
			s := &c.shards[(start+i)%cacheShards]
			if staleOnly && s.floor.Load() >= live {
				idle++
				continue
			}
			s.mu.Lock()
			var old *list.Element
			if staleOnly {
				old = s.oldestStale(live)
			} else {
				old = s.lru.Back()
			}
			if old != nil {
				s.lru.Remove(old)
				delete(s.entries, old.Value.(*cacheEntry).key)
				c.total.Add(-1)
				idle = 0
			} else {
				idle++
			}
			s.mu.Unlock()
		}
	}
}

// oldestStale returns the shard's least recent entry bound to an epoch
// before live, walking from the LRU back. When there is none it raises the
// floor to the least resident epoch. The caller holds s.mu.
func (s *cacheShard) oldestStale(live uint64) *list.Element {
	least := uint64(math.MaxUint64)
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		ep := el.Value.(*cacheEntry).epoch.Load()
		if ep < live {
			return el
		}
		least = min(least, ep)
	}
	s.floor.Store(least)
	return nil
}

// len returns the number of completed resident entries (for tests).
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
