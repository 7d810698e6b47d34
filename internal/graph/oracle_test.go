package graph

import "sort"

// The enumerators as they were before the compiled index (index.go): a
// depth-first walk over string IDs and maps that sorts every visited peer's
// adjacency. They stay, unchanged, as the reference the differential tests
// (differential_test.go) compare the index against, slice for slice.

// oracleCycles is Cycles as it was before the compiled index.
func (g *Graph) oracleCycles(maxLen int) []Cycle {
	if maxLen < 2 {
		return nil
	}
	order := g.sortedPeers()
	rank := make(map[PeerID]int, len(order))
	for i, p := range order {
		rank[p] = i
	}
	seen := make(map[string]bool)
	var out []Cycle
	for _, start := range order {
		g.cycleDFS(start, start, rank, nil, map[PeerID]bool{start: true}, map[EdgeID]bool{}, maxLen, seen, &out)
	}
	return out
}

// cycleDFS extends a walk from cur, only visiting peers of rank >= start's
// rank so each cycle is discovered from its minimum-rank peer only.
func (g *Graph) cycleDFS(start, cur PeerID, rank map[PeerID]int, walk []Step, onPath map[PeerID]bool, usedEdges map[EdgeID]bool, maxLen int, seen map[string]bool, out *[]Cycle) {
	if len(walk) >= maxLen {
		return
	}
	for _, s := range g.stepsFrom(cur) {
		if usedEdges[s.Edge] {
			continue
		}
		next := s.To(g)
		if rank[next] < rank[start] {
			continue
		}
		if next == start {
			if len(walk)+1 < 2 {
				continue
			}
			c := Cycle{Steps: append(append([]Step(nil), walk...), s)}
			if sig := c.Signature(); !seen[sig] {
				seen[sig] = true
				*out = append(*out, c)
			}
			continue
		}
		if onPath[next] {
			continue
		}
		onPath[next] = true
		usedEdges[s.Edge] = true
		g.cycleDFS(start, next, rank, append(walk, s), onPath, usedEdges, maxLen, seen, out)
		delete(onPath, next)
		delete(usedEdges, s.Edge)
	}
}

// stepsFrom lists the steps available from peer p in deterministic order.
func (g *Graph) stepsFrom(p PeerID) []Step {
	var steps []Step
	for _, id := range g.out[p] {
		e := g.edges[id]
		if e.From == p {
			steps = append(steps, Step{Edge: id, Forward: true})
		} else {
			// undirected edge incident via To
			steps = append(steps, Step{Edge: id, Forward: false})
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Edge < steps[j].Edge })
	return steps
}

func (g *Graph) sortedPeers() []PeerID {
	out := make([]PeerID, len(g.peers))
	copy(out, g.peers)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleParallelPaths is ParallelPaths as it was before the compiled index.
func (g *Graph) oracleParallelPaths(maxLen int) []ParallelPair {
	if !g.directed || maxLen < 1 {
		return nil
	}
	seen := make(map[string]bool)
	var out []ParallelPair
	for _, src := range g.sortedPeers() {
		paths := g.simplePathsFrom(src, maxLen)
		// Group by destination.
		byDest := make(map[PeerID][][]Step)
		for _, p := range paths {
			d := p[len(p)-1].To(g)
			byDest[d] = append(byDest[d], p)
		}
		dests := make([]PeerID, 0, len(byDest))
		for d := range byDest {
			dests = append(dests, d)
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		for _, d := range dests {
			group := byDest[d]
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					if !disjointPaths(g, group[i], group[j]) {
						continue
					}
					pair := ParallelPair{Source: src, Dest: d, A: group[i], B: group[j]}
					if sig := pair.Signature(); !seen[sig] {
						seen[sig] = true
						out = append(out, pair)
					}
				}
			}
		}
	}
	return out
}

// simplePathsFrom enumerates simple directed paths of 1..maxLen edges
// starting at src, in deterministic order.
func (g *Graph) simplePathsFrom(src PeerID, maxLen int) [][]Step {
	var out [][]Step
	var walk []Step
	onPath := map[PeerID]bool{src: true}
	var dfs func(cur PeerID)
	dfs = func(cur PeerID) {
		if len(walk) >= maxLen {
			return
		}
		for _, s := range g.stepsFrom(cur) {
			next := s.To(g)
			if onPath[next] {
				continue
			}
			walk = append(walk, s)
			out = append(out, append([]Step(nil), walk...))
			onPath[next] = true
			dfs(next)
			delete(onPath, next)
			walk = walk[:len(walk)-1]
		}
	}
	dfs(src)
	return out
}

// disjointPaths reports whether two paths share no edges and no internal
// peers (endpoints excepted).
func disjointPaths(g *Graph, a, b []Step) bool {
	edges := make(map[EdgeID]bool, len(a))
	internal := make(map[PeerID]bool)
	for i, s := range a {
		edges[s.Edge] = true
		if i < len(a)-1 {
			internal[s.To(g)] = true
		}
	}
	for i, s := range b {
		if edges[s.Edge] {
			return false
		}
		if i < len(b)-1 && internal[s.To(g)] {
			return false
		}
	}
	return true
}
