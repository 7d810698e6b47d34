package graph

import (
	"cmp"
	"slices"
	"sort"
)

// index is a Graph compiled for enumeration. Peers are ranked by ascending
// PeerID and edges by ascending EdgeID, so comparing ranks is comparing IDs,
// and the adjacency is CSR with each peer's steps already in edge order: the
// searches below take steps in the order the enumeration contract demands
// without sorting, hashing a string or allocating per visited peer. IDs
// reappear only when a found structure is turned into Steps.
//
// An index is immutable once built, so any number of enumerations may share
// it; each allocates its own scratch.
type index struct {
	directed bool
	peers    []PeerID // rank → ID
	edges    []Edge   // rank → edge
	from, to []int32  // edge rank → rank of the declared endpoints

	// The steps leaving peer p are the slots off[p] ≤ k < off[p+1]: edge
	// adjEdge[k], arriving at adjTo[k], traversed From→To iff adjForward[k].
	// An undirected edge has a slot at each endpoint.
	off        []int32
	adjEdge    []int32
	adjTo      []int32
	adjForward []bool

	// Directed graphs only: the tails of the edges entering p are
	// inFrom[inOff[p]:inOff[p+1]].
	inOff  []int32
	inFrom []int32
}

// index returns the compiled topology, building it if a mutation dropped it.
func (g *Graph) index() *index {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	ix := buildIndex(g)
	g.idx.Store(ix)
	return ix
}

func buildIndex(g *Graph) *index {
	n, m := len(g.peers), len(g.edgeIDs)
	ix := &index{
		directed: g.directed,
		peers:    slices.Clone(g.peers),
		edges:    make([]Edge, 0, m),
		from:     make([]int32, m),
		to:       make([]int32, m),
		off:      make([]int32, n+1),
	}
	slices.Sort(ix.peers)
	rank := make(map[PeerID]int32, n)
	for i, p := range ix.peers {
		rank[p] = int32(i)
	}
	// Sorting the IDs alone moves a third of the bytes sorting the edges would.
	ids := slices.Clone(g.edgeIDs)
	slices.Sort(ids)
	for _, id := range ids {
		ix.edges = append(ix.edges, g.edges[id].Edge)
	}

	slots := m
	if g.directed {
		ix.inOff = make([]int32, n+1)
		ix.inFrom = make([]int32, m)
	} else {
		slots = 2 * m
	}
	for e, ed := range ix.edges {
		f, t := rank[ed.From], rank[ed.To]
		ix.from[e], ix.to[e] = f, t
		ix.off[f+1]++
		if g.directed {
			ix.inOff[t+1]++
		} else {
			ix.off[t+1]++
		}
	}
	for p := 0; p < n; p++ {
		ix.off[p+1] += ix.off[p]
		if g.directed {
			ix.inOff[p+1] += ix.inOff[p]
		}
	}
	ix.adjEdge = make([]int32, slots)
	ix.adjTo = make([]int32, slots)
	ix.adjForward = make([]bool, slots)
	// Filling in edge-rank order leaves every peer's slots in edge order.
	next := slices.Clone(ix.off[:n])
	var inNext []int32
	if g.directed {
		inNext = slices.Clone(ix.inOff[:n])
	}
	put := func(at, e, to int32, forward bool) {
		k := next[at]
		next[at]++
		ix.adjEdge[k], ix.adjTo[k], ix.adjForward[k] = e, to, forward
	}
	for e := range ix.edges {
		f, t := ix.from[e], ix.to[e]
		put(f, int32(e), t, true)
		if g.directed {
			ix.inFrom[inNext[t]] = f
			inNext[t]++
		} else {
			put(t, int32(e), f, false)
		}
	}
	return ix
}

// edgeRank looks an edge ID up in the sorted edge table.
func (ix *index) edgeRank(id EdgeID) (int32, bool) {
	i := sort.Search(len(ix.edges), func(i int) bool { return ix.edges[i].ID >= id })
	return int32(i), i < len(ix.edges) && ix.edges[i].ID == id
}

// step turns slot k back into the exported form.
func (ix *index) step(k int32) Step {
	return Step{Edge: ix.edges[ix.adjEdge[k]].ID, Forward: ix.adjForward[k]}
}

// cycleSearch is the scratch of one Cycles call.
type cycleSearch struct {
	ix     *index
	maxLen int
	start  int32
	onPath []bool  // by peer rank
	used   []bool  // by edge rank
	walk   []int32 // slots taken from start
	out    []Cycle
}

func (ix *index) cycles(maxLen int) []Cycle {
	s := cycleSearch{
		ix:     ix,
		maxLen: maxLen,
		onPath: make([]bool, len(ix.peers)),
		used:   make([]bool, len(ix.edges)),
		walk:   make([]int32, 0, maxLen),
	}
	for p := range ix.peers {
		s.start = int32(p)
		s.extend(s.start)
	}
	return s.out
}

// extend grows the walk from cur through peers of rank ≥ start only, so each
// cycle is met from its least peer. Steps are taken in edge order, so cycles
// of one start come out ordered by their edge sequence.
func (s *cycleSearch) extend(cur int32) {
	if len(s.walk) >= s.maxLen {
		return
	}
	ix := s.ix
	for k := ix.off[cur]; k < ix.off[cur+1]; k++ {
		e := ix.adjEdge[k]
		if s.used[e] {
			continue
		}
		next := ix.adjTo[k]
		switch {
		case next < s.start:
		case next == s.start:
			// An undirected cycle closes here once in each direction; the
			// one whose first edge is the lesser is met first and reported.
			if len(s.walk) > 0 && (ix.directed || ix.adjEdge[s.walk[0]] < e) {
				steps := make([]Step, 0, len(s.walk)+1)
				for _, w := range s.walk {
					steps = append(steps, ix.step(w))
				}
				s.out = append(s.out, Cycle{Steps: append(steps, ix.step(k))})
			}
		case !s.onPath[next]:
			s.onPath[next], s.used[e] = true, true
			s.walk = append(s.walk, k)
			s.extend(next)
			s.walk = s.walk[:len(s.walk)-1]
			s.onPath[next], s.used[e] = false, false
		}
	}
}

// throughSearch is the scratch of one CyclesThrough call. Steps are held as
// codes (edge rank<<1 | forward bit), which can be turned round in place; a
// found cycle is a run of codes in found, and nothing is turned into Steps
// until the finds are in order.
type throughSearch struct {
	ix     *index
	maxLen int
	goal   int32 // the From peer of the changed edge searched around
	onPath []bool
	used   []bool  // edges on the walk, and every earlier changed edge
	walk   []int32 // codes taken from goal, the changed edge first
	froms  []int32 // froms[i] is the peer walk[i] leaves

	found  []int32 // canonical codes of every find, concatenated
	ends   []int32 // find i is found[ends[i-1]:ends[i]]
	starts []int32 // its start peer
}

func (ix *index) cyclesThrough(maxLen int, changed []EdgeID) []Cycle {
	s := throughSearch{
		ix:     ix,
		maxLen: maxLen,
		onPath: make([]bool, len(ix.peers)),
		used:   make([]bool, len(ix.edges)),
	}
	for _, id := range changed {
		r, ok := ix.edgeRank(id)
		if !ok || s.used[r] {
			continue
		}
		// The edge stays used for the ones after it: a cycle through several
		// changed edges is found around the first of them only.
		s.used[r] = true
		from, to := ix.from[r], ix.to[r]
		s.goal = from
		s.walk, s.froms = append(s.walk[:0], r<<1|1), append(s.froms[:0], from)
		s.onPath[to] = true
		s.extend(to)
		s.onPath[to] = false
	}
	if len(s.ends) == 0 {
		return nil
	}
	order := make([]int32, len(s.ends))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(s.starts[a], s.starts[b]); c != 0 {
			return c
		}
		return slices.CompareFunc(s.find(a), s.find(b), func(x, y int32) int { return cmp.Compare(x>>1, y>>1) })
	})
	out := make([]Cycle, len(order))
	for i, f := range order {
		codes := s.find(f)
		steps := make([]Step, len(codes))
		for j, c := range codes {
			steps[j] = Step{Edge: ix.edges[c>>1].ID, Forward: c&1 == 1}
		}
		out[i] = Cycle{Steps: steps}
	}
	return out
}

func (s *throughSearch) find(i int32) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = s.ends[i-1]
	}
	return s.found[lo:s.ends[i]]
}

// extend grows the walk from cur until a step arrives back at goal.
func (s *throughSearch) extend(cur int32) {
	if len(s.walk) >= s.maxLen {
		return
	}
	ix := s.ix
	for k := ix.off[cur]; k < ix.off[cur+1]; k++ {
		e, next := ix.adjEdge[k], ix.adjTo[k]
		if s.used[e] || (next != s.goal && s.onPath[next]) {
			continue
		}
		code := e << 1
		if ix.adjForward[k] {
			code |= 1
		}
		s.walk, s.froms = append(s.walk, code), append(s.froms, cur)
		if next == s.goal {
			s.record()
		} else {
			s.onPath[next], s.used[e] = true, true
			s.extend(next)
			s.onPath[next], s.used[e] = false, false
		}
		s.walk, s.froms = s.walk[:len(s.walk)-1], s.froms[:len(s.froms)-1]
	}
}

// record stores the closed walk in the form Cycles reports it in: rotated to
// start at its least peer and, if undirected, turned so that its first edge
// is the lesser of the two at that peer.
func (s *throughSearch) record() {
	n := len(s.walk)
	first := 0
	for i, p := range s.froms {
		if p < s.froms[first] {
			first = i
		}
	}
	out, in := s.walk[first], s.walk[(first+n-1)%n]
	for j := 0; j < n; j++ {
		if s.ix.directed || out>>1 < in>>1 {
			s.found = append(s.found, s.walk[(first+j)%n])
		} else {
			s.found = append(s.found, s.walk[(first-1-j+2*n)%n]^1)
		}
	}
	s.ends = append(s.ends, int32(len(s.found)))
	s.starts = append(s.starts, s.froms[first])
}

// pairSearch is the scratch of one ParallelPaths call. The simple paths from
// one source form the tree of the depth-first walk that finds them: node x is
// the path ending with slot[x], and parent[x] the path it extends.
type pairSearch struct {
	ix      *index
	maxLen  int
	changed []bool // by edge rank; nil when every pair is wanted
	onPath  []bool

	parent []int32
	slot   []int32
	touch  []bool   // the path uses a changed edge
	steps  [][]Step // the path as Steps, once some pair needs it

	count []int32 // by peer rank: paths arriving there
	dests []int32 // the peers with count > 0
	order []int32 // nodes grouped by destination, walk order within a group

	// The edges and inner peers of the path under comparison carry mark gen.
	edgeMark, peerMark []int32
	gen                int32

	out []ParallelPair
}

func (ix *index) parallelPaths(maxLen int, changed []EdgeID) []ParallelPair {
	n, m := len(ix.peers), len(ix.edges)
	s := pairSearch{
		ix:       ix,
		maxLen:   maxLen,
		onPath:   make([]bool, n),
		count:    make([]int32, n),
		edgeMark: make([]int32, m),
		peerMark: make([]int32, n),
	}
	var source []bool
	if changed != nil {
		s.changed = make([]bool, m)
		source = make([]bool, n)
		var frontier []int32
		for _, id := range changed {
			if r, ok := ix.edgeRank(id); ok {
				s.changed[r] = true
				if f := ix.from[r]; !source[f] {
					source[f] = true
					frontier = append(frontier, f)
				}
			}
		}
		// A path that uses a changed edge reaches the edge's tail in at
		// most maxLen-1 steps: walk that far back over the in-adjacency.
		for hop := 1; hop < maxLen; hop++ {
			var back []int32
			for _, p := range frontier {
				for _, q := range ix.inFrom[ix.inOff[p]:ix.inOff[p+1]] {
					if !source[q] {
						source[q] = true
						back = append(back, q)
					}
				}
			}
			frontier = back
		}
	}
	for p := range ix.peers {
		if source == nil || source[p] {
			s.pairsFrom(int32(p))
		}
	}
	return s.out
}

// pairsFrom reports the pairs whose source is src: by destination, then by
// the two paths' positions in the walk.
func (s *pairSearch) pairsFrom(src int32) {
	ix := s.ix
	s.parent, s.slot, s.touch = s.parent[:0], s.slot[:0], s.touch[:0]
	s.onPath[src] = true
	s.extend(src, -1, 0, false)
	s.onPath[src] = false
	if s.changed != nil && !slices.Contains(s.touch, true) {
		return
	}

	// Stable bucket sort of the paths by destination rank.
	s.dests = s.dests[:0]
	for _, k := range s.slot {
		d := ix.adjTo[k]
		if s.count[d] == 0 {
			s.dests = append(s.dests, d)
		}
		s.count[d]++
	}
	slices.Sort(s.dests)
	at := int32(0)
	for _, d := range s.dests {
		s.count[d], at = at, at+s.count[d]
	}
	s.order = slices.Grow(s.order[:0], len(s.slot))[:len(s.slot)]
	for x, k := range s.slot {
		d := ix.adjTo[k]
		s.order[s.count[d]] = int32(x)
		s.count[d]++
	}
	s.steps = slices.Grow(s.steps[:0], len(s.slot))[:len(s.slot)]
	clear(s.steps)

	lo := int32(0)
	for _, d := range s.dests {
		group := s.order[lo:s.count[d]]
		lo, s.count[d] = s.count[d], 0
		for i, a := range group {
			marked := false
			for _, b := range group[i+1:] {
				if s.changed != nil && !s.touch[a] && !s.touch[b] {
					continue
				}
				if !marked {
					s.mark(a)
					marked = true
				}
				if s.disjoint(b) {
					s.out = append(s.out, ParallelPair{Source: ix.peers[src], Dest: ix.peers[d], A: s.path(a), B: s.path(b)})
				}
			}
		}
	}
}

// extend adds a node for every simple path that continues the path node
// (depth steps long, ending at cur) by up to maxLen-depth steps.
func (s *pairSearch) extend(cur, node int32, depth int, touched bool) {
	ix := s.ix
	for k := ix.off[cur]; k < ix.off[cur+1]; k++ {
		next := ix.adjTo[k]
		if s.onPath[next] {
			continue
		}
		x := int32(len(s.slot))
		t := touched || (s.changed != nil && s.changed[ix.adjEdge[k]])
		s.parent, s.slot, s.touch = append(s.parent, node), append(s.slot, k), append(s.touch, t)
		if depth+1 < s.maxLen {
			s.onPath[next] = true
			s.extend(next, x, depth+1, t)
			s.onPath[next] = false
		}
	}
}

// mark stamps the edges and the inner peers of path a.
func (s *pairSearch) mark(a int32) {
	ix := s.ix
	s.gen++
	for x := a; x >= 0; x = s.parent[x] {
		k := s.slot[x]
		s.edgeMark[ix.adjEdge[k]] = s.gen
		if x != a {
			s.peerMark[ix.adjTo[k]] = s.gen
		}
	}
}

// disjoint reports whether path b shares no edge and no inner peer with the
// marked path.
func (s *pairSearch) disjoint(b int32) bool {
	ix := s.ix
	for x := b; x >= 0; x = s.parent[x] {
		k := s.slot[x]
		if s.edgeMark[ix.adjEdge[k]] == s.gen || (x != b && s.peerMark[ix.adjTo[k]] == s.gen) {
			return false
		}
	}
	return true
}

// path returns node x as Steps; the pairs of one source share them.
func (s *pairSearch) path(x int32) []Step {
	if s.steps[x] != nil {
		return s.steps[x]
	}
	n := 0
	for y := x; y >= 0; y = s.parent[y] {
		n++
	}
	steps := make([]Step, n)
	for y := x; y >= 0; y = s.parent[y] {
		n--
		steps[n] = s.ix.step(s.slot[y])
	}
	s.steps[x] = steps
	return steps
}
