// Package graph provides the weighted undirected graphs and maximum-weight
// matching used by the multilevel coarsening phase of the partitioner.
//
// The paper computes a maximum-weight matching at every coarsening step
// using the implementation in the LEDA library (paper §2.1.2, footnote).
// LEDA's exact general-graph matching is not available here, so this package
// substitutes:
//
//   - an exact maximum-weight matching for graphs with at most ExactLimit
//     vertices (which covers the small coarse graphs near the end of
//     coarsening, where the matching choice matters most): a top-down memo
//     over the vertex subsets its recurrence reaches from the full set.
//     Coarse graphs are sparse, so that is few subsets: over the SPECfp95
//     corpus on both paper machines, 58 per call on average and 824 at
//     most, where a table over all 2^N subsets would fill 2,205 on
//     average; and
//   - greedy heavy-edge matching followed by 2-exchange local improvement
//     for larger graphs (the standard multilevel-partitioning practice,
//     e.g. METIS; greedy alone is a ½-approximation, which the tests check
//     against the exact algorithm on random small graphs).
//
// The substitution is recorded in docs/ARCHITECTURE.md, "Substitutions and
// ablations".
package graph

import (
	"math/bits"
	"sort"
	"sync"
)

// Edge is an undirected edge with a non-negative weight. Parallel edges are
// allowed (the partitioner merges them before matching); self loops are
// ignored by the matching algorithms.
type Edge struct {
	U, V int
	W    int64
}

// Graph is a simple edge-list representation of an undirected weighted
// graph over vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// ExactLimit is the largest vertex count for which MaxWeightMatching uses
// the exact matcher. Its memo holds only reachable subsets: 58 per call on
// average and 824 at most over the SPECfp95 corpus. Every step removes the
// lowest remaining vertex, so even the complete 14-vertex graph, whose
// reachable subsets contain every other graph's, reaches only 986 of the
// 2^14 = 16,384, and a call takes tens of microseconds at worst. Above the
// limit, greedy matching with 2-exchange improvement is both fast and
// within a few percent of optimal.
const ExactLimit = 14

// Matching is a set of vertex-disjoint edges, given by indices into the
// graph's edge list.
type Matching struct {
	// EdgeIdx are indices into Graph.Edges.
	EdgeIdx []int
	// Weight is the total weight of the matched edges.
	Weight int64
	// Mate maps each vertex to its partner, or -1 if unmatched.
	Mate []int
}

// MaxWeightMatching returns a maximum-weight matching of g: exact for
// graphs with at most ExactLimit vertices, greedy heavy-edge matching with
// 2-exchange improvement above that.
func MaxWeightMatching(g *Graph) *Matching {
	if g.N <= ExactLimit {
		mt := matcherPool.Get().(*matcher)
		defer matcherPool.Put(mt)
		return mt.exact(g)
	}
	m := GreedyMatching(g)
	improveMatching(g, m)
	return m
}

// GreedyMatching returns the heavy-edge greedy matching: edges are scanned
// in order of decreasing weight (ties by lower edge index, for determinism)
// and added when both endpoints are free. This is a ½-approximation of the
// maximum-weight matching.
func GreedyMatching(g *Graph) *Matching {
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := g.Edges[order[a]], g.Edges[order[b]]
		if ea.W != eb.W {
			return ea.W > eb.W
		}
		return order[a] < order[b]
	})
	mate := newMate(g.N)
	m := &Matching{Mate: mate}
	for _, ei := range order {
		e := g.Edges[ei]
		if e.U == e.V || e.W < 0 {
			continue
		}
		if mate[e.U] == -1 && mate[e.V] == -1 {
			mate[e.U], mate[e.V] = e.V, e.U
			m.EdgeIdx = append(m.EdgeIdx, ei)
			m.Weight += e.W
		}
	}
	return m
}

// improveMatching applies 2-exchange local search: for every pair of
// matched edges (a,b),(c,d) it considers rematching as (a,c),(b,d) or
// (a,d),(b,c) when those edges exist and are heavier; and for every matched
// edge it considers replacing it with a heavier incident edge whose other
// endpoint is free. Repeats until no improvement (bounded by total weight,
// which strictly increases).
func improveMatching(g *Graph, m *Matching) {
	// Index edges by endpoint pair for O(1) lookup (heaviest parallel edge).
	best := make(map[[2]int]int, len(g.Edges))
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		k := key(e.U, e.V)
		if j, ok := best[k]; !ok || g.Edges[j].W < e.W {
			best[k] = i
		}
	}
	weightOf := func(u, v int) (int64, int, bool) {
		j, ok := best[key(u, v)]
		if !ok {
			return 0, -1, false
		}
		return g.Edges[j].W, j, true
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		// Single-edge upgrades: matched edge (u,v) vs incident (u,x) with x free.
		for _, e := range g.Edges {
			if e.U == e.V {
				continue
			}
			u, v := e.U, e.V
			if m.Mate[u] == -1 && m.Mate[v] == -1 {
				// Both free: greedy missed only if weight positive; take it.
				if e.W > 0 {
					matchPair(m, g, u, v)
					improved = true
				}
				continue
			}
			if m.Mate[u] != -1 && m.Mate[v] != -1 {
				continue
			}
			// Exactly one endpoint matched; try replacing its current edge.
			if m.Mate[v] != -1 {
				u, v = v, u // u matched, v free
			}
			w := m.Mate[u]
			cur, _, _ := weightOf(u, w)
			if e.W > cur {
				unmatchPair(m, u, w)
				matchPair(m, g, u, v)
				improved = true
			}
		}
		// Pair exchanges.
		matched := append([]int(nil), m.EdgeIdx...)
		for i := 0; i < len(matched); i++ {
			for j := i + 1; j < len(matched); j++ {
				e1, e2 := g.Edges[matched[i]], g.Edges[matched[j]]
				a, b, c, d := e1.U, e1.V, e2.U, e2.V
				if m.Mate[a] != b || m.Mate[c] != d {
					continue // already rewired this pass
				}
				base := e1.W + e2.W
				if w1, _, ok1 := weightOf(a, c); ok1 {
					if w2, _, ok2 := weightOf(b, d); ok2 && w1+w2 > base {
						unmatchPair(m, a, b)
						unmatchPair(m, c, d)
						matchPair(m, g, a, c)
						matchPair(m, g, b, d)
						improved = true
						continue
					}
				}
				if w1, _, ok1 := weightOf(a, d); ok1 {
					if w2, _, ok2 := weightOf(b, c); ok2 && w1+w2 > base {
						unmatchPair(m, a, b)
						unmatchPair(m, c, d)
						matchPair(m, g, a, d)
						matchPair(m, g, b, c)
						improved = true
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	rebuild(g, m)
}

// matchPair records u–v as matched using the heaviest parallel edge.
func matchPair(m *Matching, g *Graph, u, v int) {
	m.Mate[u], m.Mate[v] = v, u
}

func unmatchPair(m *Matching, u, v int) {
	m.Mate[u], m.Mate[v] = -1, -1
}

// rebuild recomputes EdgeIdx and Weight from Mate, picking the heaviest
// parallel edge for each matched pair.
func rebuild(g *Graph, m *Matching) {
	m.EdgeIdx = m.EdgeIdx[:0]
	m.Weight = 0
	bestIdx := make(map[[2]int]int)
	for i, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if j, ok := bestIdx[k]; !ok || g.Edges[j].W < e.W {
			bestIdx[k] = i
		}
	}
	for u := 0; u < g.N; u++ {
		v := m.Mate[u]
		if v > u {
			if j, ok := bestIdx[[2]int{u, v}]; ok {
				m.EdgeIdx = append(m.EdgeIdx, j)
				m.Weight += g.Edges[j].W
			}
		}
	}
}

// matcher holds the exact matcher's scratch: the heaviest-edge table, the
// per-vertex neighbour masks and the reachable-subset memo. A matcher
// serves one call at a time and keeps buffer capacity between calls, never
// content. MaxWeightMatching takes one from matcherPool per call, so
// concurrent partitioners (portfolio racers, parallel sweeps) each get
// their own and repeated coarsening steps reuse a grown memo.
type matcher struct {
	pair [ExactLimit][ExactLimit]pairEdge // heaviest positive edge per vertex pair
	adj  [ExactLimit]uint32               // adj[v]: vertices joined to v by a positive edge
	memo memo
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// pairEdge is the heaviest positive-weight edge between two vertices, or
// idx -1 when there is none.
type pairEdge struct {
	w   int64
	idx int
}

// exact computes a maximum-weight matching by a top-down memo over vertex
// subsets. best(S) is the best matching weight using only vertices in S:
// with v the lowest vertex of S, either v stays unmatched, or v is matched
// to a neighbour u in S through their heaviest parallel edge, neighbours
// tried in increasing u and replaced only by a strictly heavier total.
// Starting from the full vertex set, the memo holds only the subsets that
// recurrence reaches, which on coarsening graphs is a few dozen rather
// than 2^N.
func (mt *matcher) exact(g *Graph) *Matching {
	n := g.N
	for v := 0; v < n; v++ {
		mt.adj[v] = 0
		for u := 0; u < n; u++ {
			mt.pair[v][u] = pairEdge{0, -1}
		}
	}
	for i, e := range g.Edges {
		if e.U == e.V || e.W <= 0 {
			continue
		}
		if e.W > mt.pair[e.U][e.V].w {
			mt.pair[e.U][e.V] = pairEdge{e.W, i}
			mt.pair[e.V][e.U] = pairEdge{e.W, i}
			mt.adj[e.U] |= 1 << e.V
			mt.adj[e.V] |= 1 << e.U
		}
	}
	mt.memo.reset()
	full := uint32(1)<<n - 1
	m := &Matching{Mate: newMate(n), Weight: mt.best(full)}
	// Walk the recorded choices from the full set. Each step removes the
	// lowest remaining vertex, so pairs come out in increasing order of
	// their lower vertex, which is the order EdgeIdx lists them in.
	pairs := 0
	for s := full; s != 0; {
		v := bits.TrailingZeros32(s)
		u := mt.memo.choice(s)
		s &^= 1 << v
		if u >= 0 {
			m.Mate[v], m.Mate[u] = u, v
			s &^= 1 << u
			pairs++
		}
	}
	if pairs > 0 {
		m.EdgeIdx = make([]int, 0, pairs)
		for v, u := range m.Mate {
			if u > v {
				m.EdgeIdx = append(m.EdgeIdx, mt.pair[v][u].idx)
			}
		}
	}
	return m
}

// best returns the maximum matching weight within subset s, memoizing it
// and the partner chosen for s's lowest vertex.
func (mt *matcher) best(s uint32) int64 {
	if s == 0 {
		return 0
	}
	if w, ok := mt.memo.weight(s); ok {
		return w
	}
	v := bits.TrailingZeros32(s)
	rest := s &^ (1 << v)
	bestW := mt.best(rest) // leave v unmatched
	bestU := -1
	for nb := mt.adj[v] & rest; nb != 0; nb &= nb - 1 {
		u := bits.TrailingZeros32(nb)
		if w := mt.best(rest&^(1<<u)) + mt.pair[v][u].w; w > bestW {
			bestW, bestU = w, u
		}
	}
	mt.memo.put(s, bestW, bestU)
	return bestW
}

// memo is an open-addressing hash table from vertex subset to its best
// weight and the chosen partner of its lowest vertex. Entries whose stamp
// is not the current generation are empty, so reset costs O(1) instead of
// clearing the table.
type memo struct {
	slots []memoSlot // power-of-two length
	shift uint8      // 32 − log2(len(slots)): the hash keeps the top bits
	gen   uint32
	used  int
}

type memoSlot struct {
	gen  uint32
	set  uint16 // the subset (ExactLimit ≤ 16 vertices)
	mate int8   // partner of the subset's lowest vertex, or -1
	w    int64
}

const memoMinSlots = 64

func (t *memo) resize(n int) {
	t.slots = make([]memoSlot, n)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
}

// reset empties the table, keeping its capacity.
func (t *memo) reset() {
	t.used = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could look current
		clear(t.slots)
		t.gen = 1
	}
	if t.slots == nil {
		t.resize(memoMinSlots)
	}
}

// find returns the slot holding s, or the empty slot where s belongs.
func (t *memo) find(s uint32) *memoSlot {
	mask := uint32(len(t.slots) - 1)
	for i := (s * 0x9E3779B1) >> t.shift; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.gen != t.gen || uint32(sl.set) == s {
			return sl
		}
	}
}

func (t *memo) weight(s uint32) (int64, bool) {
	sl := t.find(s)
	return sl.w, sl.gen == t.gen
}

// choice returns the recorded partner of s's lowest vertex; s must have
// been memoized by best.
func (t *memo) choice(s uint32) int { return int(t.find(s).mate) }

func (t *memo) put(s uint32, w int64, mate int) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	sl := t.find(s)
	*sl = memoSlot{gen: t.gen, set: uint16(s), mate: int8(mate), w: w}
	t.used++
}

// grow doubles the table, rehashing the current generation's entries.
func (t *memo) grow() {
	old := t.slots
	t.resize(2 * len(old))
	for _, sl := range old {
		if sl.gen == t.gen {
			*t.find(uint32(sl.set)) = sl
		}
	}
}

func newMate(n int) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	return mate
}
