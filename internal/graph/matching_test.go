package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// validMatching checks structural invariants: matched edges are vertex
// disjoint, Mate is symmetric and consistent with EdgeIdx, Weight is the
// sum of matched edge weights.
func validMatching(t *testing.T, g *Graph, m *Matching) {
	t.Helper()
	if len(m.Mate) != g.N {
		t.Fatalf("Mate length %d, want %d", len(m.Mate), g.N)
	}
	for v, u := range m.Mate {
		if u == -1 {
			continue
		}
		if u < 0 || u >= g.N {
			t.Fatalf("Mate[%d] = %d out of range", v, u)
		}
		if m.Mate[u] != v {
			t.Fatalf("Mate not symmetric: Mate[%d]=%d, Mate[%d]=%d", v, u, u, m.Mate[u])
		}
	}
	seen := make(map[int]bool)
	var w int64
	for _, ei := range m.EdgeIdx {
		e := g.Edges[ei]
		if seen[e.U] || seen[e.V] {
			t.Fatalf("edge %d (%d-%d) shares a vertex with another matched edge", ei, e.U, e.V)
		}
		seen[e.U], seen[e.V] = true, true
		if m.Mate[e.U] != e.V || m.Mate[e.V] != e.U {
			t.Fatalf("EdgeIdx and Mate disagree on edge %d", ei)
		}
		w += e.W
	}
	if w != m.Weight {
		t.Fatalf("Weight = %d, sum of matched edges = %d", m.Weight, w)
	}
}

func TestExactTriangle(t *testing.T) {
	// Triangle with weights 5, 4, 3: best matching is the single edge 5.
	g := &Graph{N: 3, Edges: []Edge{{0, 1, 5}, {1, 2, 4}, {0, 2, 3}}}
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if m.Weight != 5 {
		t.Errorf("Weight = %d, want 5", m.Weight)
	}
}

func TestExactBeatsGreedy(t *testing.T) {
	// Path a-b-c-d with weights 3, 4, 3: greedy picks the middle edge
	// (weight 4); optimum picks the two outer edges (weight 6).
	g := &Graph{N: 4, Edges: []Edge{{0, 1, 3}, {1, 2, 4}, {2, 3, 3}}}
	greedy := GreedyMatching(g)
	if greedy.Weight != 4 {
		t.Fatalf("greedy Weight = %d, want 4", greedy.Weight)
	}
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if m.Weight != 6 {
		t.Errorf("exact Weight = %d, want 6", m.Weight)
	}
}

func TestPerfectMatchingCycle(t *testing.T) {
	// Even cycle with uniform weights: perfect matching of n/2 edges.
	n := 8
	g := &Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, Edge{i, (i + 1) % n, 10})
	}
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if m.Weight != int64(n/2*10) {
		t.Errorf("Weight = %d, want %d", m.Weight, n/2*10)
	}
}

func TestParallelEdgesPickHeaviest(t *testing.T) {
	g := &Graph{N: 2, Edges: []Edge{{0, 1, 3}, {0, 1, 9}, {0, 1, 1}}}
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if m.Weight != 9 {
		t.Errorf("Weight = %d, want 9 (heaviest parallel edge)", m.Weight)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := &Graph{N: 2, Edges: []Edge{{0, 0, 100}, {0, 1, 1}}}
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if m.Weight != 1 {
		t.Errorf("Weight = %d, want 1 (self loop must be ignored)", m.Weight)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := &Graph{N: n}
		m := MaxWeightMatching(g)
		validMatching(t, g, m)
		if m.Weight != 0 || len(m.EdgeIdx) != 0 {
			t.Errorf("n=%d: Weight=%d edges=%d, want empty", n, m.Weight, len(m.EdgeIdx))
		}
	}
}

func randomGraph(r *rand.Rand, n, maxEdges int) *Graph {
	g := &Graph{N: n}
	e := r.Intn(maxEdges + 1)
	for i := 0; i < e; i++ {
		g.Edges = append(g.Edges, Edge{r.Intn(n), r.Intn(n), int64(r.Intn(50) + 1)})
	}
	return g
}

// TestGreedyHalfApproximation checks the classical guarantee
// greedy ≥ ½·optimal on random small graphs, comparing against the exact
// matching.
func TestGreedyHalfApproximation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(10) + 2
		g := randomGraph(r, n, 25)
		exact := new(matcher).exact(g)
		greedy := GreedyMatching(g)
		validMatching(t, g, exact)
		validMatching(t, g, greedy)
		if 2*greedy.Weight < exact.Weight {
			t.Fatalf("trial %d: greedy %d < ½·exact %d on %+v", trial, greedy.Weight, exact.Weight, g)
		}
		if greedy.Weight > exact.Weight {
			t.Fatalf("trial %d: greedy %d exceeds exact %d", trial, greedy.Weight, exact.Weight)
		}
	}
}

// TestImprovementNeverHurts checks that local improvement only increases
// weight and preserves matching validity.
func TestImprovementNeverHurts(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(30) + 2
		g := randomGraph(r, n, 80)
		greedy := GreedyMatching(g)
		gw := greedy.Weight
		improveMatching(g, greedy)
		validMatching(t, g, greedy)
		if greedy.Weight < gw {
			t.Fatalf("trial %d: improvement reduced weight %d → %d", trial, gw, greedy.Weight)
		}
	}
}

// TestExactMatchesBruteForce cross-checks the exact matcher against a direct
// recursive enumeration on tiny graphs.
func TestExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var brute func(g *Graph, used int) int64
	brute = func(g *Graph, used int) int64 {
		var best int64
		for _, e := range g.Edges {
			if e.U == e.V || used&(1<<e.U) != 0 || used&(1<<e.V) != 0 {
				continue
			}
			if w := e.W + brute(g, used|1<<e.U|1<<e.V); w > best {
				best = w
			}
		}
		return best
	}
	for trial := 0; trial < 150; trial++ {
		n := r.Intn(7) + 1
		g := randomGraph(r, n, 14)
		exact := new(matcher).exact(g)
		if want := brute(g, 0); exact.Weight != want {
			t.Fatalf("trial %d: exact %d, brute force %d", trial, exact.Weight, want)
		}
	}
}

// TestMatchingDisjointProperty is a quick-check property: no vertex appears
// in two matched edges for arbitrary random graphs (including above the
// exact threshold).
func TestMatchingDisjointProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, eRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := randomGraph(r, n, int(eRaw))
		m := MaxWeightMatching(g)
		used := make(map[int]bool)
		for _, ei := range m.EdgeIdx {
			e := g.Edges[ei]
			if used[e.U] || used[e.V] {
				return false
			}
			used[e.U], used[e.V] = true, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeGraphUsesGreedyPath(t *testing.T) {
	// A graph above ExactLimit must still produce a valid matching quickly.
	r := rand.New(rand.NewSource(4))
	g := randomGraph(r, 200, 1000)
	m := MaxWeightMatching(g)
	validMatching(t, g, m)
	if len(m.EdgeIdx) == 0 {
		t.Error("large random graph produced empty matching")
	}
}

func TestMaximality(t *testing.T) {
	// The returned matching must be maximal: no remaining edge has both
	// endpoints free (otherwise coarsening stalls).
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(50) + 2
		g := randomGraph(r, n, 150)
		m := MaxWeightMatching(g)
		for _, e := range g.Edges {
			if e.U != e.V && e.W > 0 && m.Mate[e.U] == -1 && m.Mate[e.V] == -1 {
				t.Fatalf("trial %d: matching not maximal, edge %d-%d free", trial, e.U, e.V)
			}
		}
	}
}

// exactMatchingDP is the bottom-up dynamic program over all 2^N vertex
// subsets that the reachable-subset memo replaced. It is kept as the
// reference the memo must equal: same recurrence (lowest vertex unmatched,
// or matched to a neighbour u in increasing order, replaced only by a
// strictly heavier total), same reconstruction walk.
func exactMatchingDP(g *Graph) *Matching {
	n := g.N
	type pe struct {
		w   int64
		idx int
	}
	pair := make([][]pe, n)
	for i := range pair {
		pair[i] = make([]pe, n)
		for j := range pair[i] {
			pair[i][j] = pe{0, -1}
		}
	}
	for i, e := range g.Edges {
		if e.U == e.V || e.W <= 0 {
			continue
		}
		if e.W > pair[e.U][e.V].w {
			pair[e.U][e.V] = pe{e.W, i}
			pair[e.V][e.U] = pe{e.W, i}
		}
	}
	lowestBit := func(s int) int {
		b := 0
		for s&1 == 0 {
			s >>= 1
			b++
		}
		return b
	}
	size := 1 << n
	dp := make([]int64, size)
	choice := make([]int32, size) // matched partner of lowest bit, or -1
	for s := 1; s < size; s++ {
		v := lowestBit(s)
		rest := s &^ (1 << v)
		bestW := dp[rest]
		bestU := int32(-1)
		for u := v + 1; u < n; u++ {
			if rest&(1<<u) == 0 {
				continue
			}
			if p := pair[v][u]; p.idx >= 0 {
				if w := dp[rest&^(1<<u)] + p.w; w > bestW {
					bestW, bestU = w, int32(u)
				}
			}
		}
		dp[s] = bestW
		choice[s] = bestU
	}
	m := &Matching{Mate: newMate(n), Weight: dp[size-1]}
	for s := size - 1; s > 0; {
		v := lowestBit(s)
		u := choice[s]
		if u < 0 {
			s &^= 1 << v
			continue
		}
		m.Mate[v], m.Mate[u] = int(u), v
		m.EdgeIdx = append(m.EdgeIdx, pair[v][u].idx)
		s &^= (1 << v) | (1 << int(u))
	}
	return m
}

// tieGraph returns a random graph on n vertices whose small weight range
// (−3…12) makes ties, zero and negative weights, parallel edges and self
// loops common: the cases where a different tie-break or edge choice would
// show.
func tieGraph(r *rand.Rand, n int) *Graph {
	g := &Graph{N: n}
	if n == 0 {
		return g
	}
	for i, e := 0, r.Intn(3*n+2); i < e; i++ {
		g.Edges = append(g.Edges, Edge{r.Intn(n), r.Intn(n), int64(r.Intn(16) - 3)})
	}
	return g
}

// TestExactMatchingEqualsDP requires the reachable-subset memo to return
// exactly the matching of the all-subsets DP — the same Mate, EdgeIdx (order
// included) and Weight — on seeded random graphs of every exact size, with
// one matcher reused across all of them as the pool reuses it.
func TestExactMatchingEqualsDP(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var mt matcher
	for trial := 0; trial < 12000; trial++ {
		g := tieGraph(r, trial%(ExactLimit+1))
		got, want := mt.exact(g), exactMatchingDP(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: memo %+v, DP %+v on %+v", trial, got, want, g)
		}
	}
}

// FuzzExactMatching decodes a graph from the input — the first byte picks
// N ≤ ExactLimit, each following triple one edge (u, v, signed weight) —
// and requires the memo to equal the all-subsets DP.
func FuzzExactMatching(f *testing.F) {
	f.Add([]byte{3, 0, 1, 5, 1, 2, 4, 0, 2, 3})
	f.Add([]byte{14, 0, 13, 1, 1, 1, 9, 2, 3, 0, 4, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := &Graph{N: int(data[0]) % (ExactLimit + 1)}
		for b := data[1:]; g.N > 0 && len(b) >= 3; b = b[3:] {
			g.Edges = append(g.Edges, Edge{int(b[0]) % g.N, int(b[1]) % g.N, int64(int8(b[2]))})
		}
		got, want := new(matcher).exact(g), exactMatchingDP(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("memo %+v, DP %+v on %+v", got, want, g)
		}
	})
}

// TestMaxWeightMatchingConcurrent runs MaxWeightMatching from 8 goroutines
// at once, as portfolio racers partitioning in parallel do; under -race it
// proves the calls share no scratch, and every result must equal the DP.
func TestMaxWeightMatchingConcurrent(t *testing.T) {
	graphs := make([]*Graph, 64)
	r := rand.New(rand.NewSource(7))
	for i := range graphs {
		graphs[i] = tieGraph(r, ExactLimit-i%4)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range graphs {
				g := graphs[(i+w)%len(graphs)]
				if got, want := MaxWeightMatching(g), exactMatchingDP(g); !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("goroutine %d: %+v, want %+v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
