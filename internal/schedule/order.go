package schedule

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

// Loop is what every II attempt of one loop on one machine shares and no
// attempt changes: the SMS node groups (recurrences, reachability and the
// weakly connected remainder, which depend on the graph alone) and the
// dependence adjacency the order sweeps walk. Build it once per loop with
// NewLoop; it is read-only afterwards, so goroutines may attempt different
// IIs of the loop at once, each in its own Workspace.
type Loop struct {
	g *ddg.Graph
	m *machine.Config

	groups       [][]int
	preds, succs [][]int
}

// NewLoop builds the II-independent attempt context of g on m.
func NewLoop(g *ddg.Graph, m *machine.Config) *Loop {
	lp := &Loop{g: g, m: m}
	lp.preds, lp.succs = adjacency(g)
	lp.groups = buildGroups(g, lp.preds, lp.succs)
	return lp
}

// adjacency returns every node's predecessors and successors over all
// dependence edges but self loops (data and memory ordering alike: both
// constrain placement windows), in edge order, in one backing array.
func adjacency(g *ddg.Graph) (preds, succs [][]int) {
	n := g.N()
	deg := make([]int, 2*n) // in-degrees, then out-degrees
	for _, e := range g.Edges {
		if e.From != e.To {
			deg[e.To]++
			deg[n+e.From]++
		}
	}
	rows := make([][]int, 2*n)
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]int, total)
	off := 0
	for i, d := range deg {
		rows[i] = backing[off : off : off+d]
		off += d
	}
	preds, succs = rows[:n:n], rows[n:]
	for _, e := range g.Edges {
		if e.From != e.To {
			preds[e.To] = append(preds[e.To], e.From)
			succs[e.From] = append(succs[e.From], e.To)
		}
	}
	return preds, succs
}

// Order computes the node scheduling order following the Swing Modulo
// Scheduling ordering algorithm (Llosa et al., PACT'96), which the paper
// uses verbatim (§3.3.3): recurrences are processed in decreasing RecMII
// order, each extended with the nodes on paths to previously ordered
// groups, and within a group the order alternates between top-down and
// bottom-up sweeps so that every node (except the first of a group) is
// ordered while having scheduled neighbors on one side only. Priorities
// within a sweep use criticality (mobility, then position), computed from
// the ASAP/ALAP times at ii. TrySchedule passes the II it is attempting,
// so the order can differ between attempts of one loop; SMS as published
// computes it once, at the MII.
func Order(g *ddg.Graph, m *machine.Config, ii int) []int {
	if g.N() == 0 {
		return nil
	}
	times, ok := g.StartTimes(m, ii, nil)
	if !ok {
		// An ii below RecMII has no start times (TrySchedule then fails
		// the attempt with FailWindow); fall back to the smallest
		// feasible II to keep Order total.
		times, _ = g.StartTimes(m, g.RecMII(nil), nil)
	}
	var scr orderScratch
	return NewLoop(g, m).order(times, &scr)
}

// orderScratch is order's per-attempt storage, reused across attempts: the
// ordered marks, the order itself and the two node sets a sweep works on.
type orderScratch struct {
	ordered  []bool
	order    []int
	inGroup  nodeSet // the current group's unordered nodes
	frontier nodeSet // the nodes the current sweep may order next
}

// order is Order for start times already computed at the attempt's II. The
// returned slice lives in scr and is valid until scr is next used.
func (lp *Loop) order(times *ddg.Times, scr *orderScratch) []int {
	n := lp.g.N()
	preds, succs := lp.preds, lp.succs
	scr.ordered = resizeBools(scr.ordered, n)
	clear(scr.ordered)
	ordered := scr.ordered
	if cap(scr.order) < n {
		scr.order = make([]int, 0, n)
	}
	order := scr.order[:0]
	inGroup, frontier := &scr.inGroup, &scr.frontier
	inGroup.resize(n)
	frontier.resize(n)

	mobility := func(v int) int { return times.Latest[v] - times.Earliest[v] }

	// pick returns the best candidate of set under the sweep direction:
	// most critical first (lowest mobility); ties prefer earlier ASAP for
	// top-down sweeps and later ALAP for bottom-up ones; final tie on ID.
	// The ranking is total, so the pick does not depend on set order.
	pick := func(set *nodeSet, topDown bool) int {
		best := -1
		for _, v := range set.list {
			if best == -1 {
				best = v
				continue
			}
			mv, mb := mobility(v), mobility(best)
			switch {
			case mv != mb:
				if mv < mb {
					best = v
				}
			case topDown && times.Earliest[v] != times.Earliest[best]:
				if times.Earliest[v] < times.Earliest[best] {
					best = v
				}
			case !topDown && times.Latest[v] != times.Latest[best]:
				if times.Latest[v] > times.Latest[best] {
					best = v
				}
			default:
				if v < best {
					best = v
				}
			}
		}
		return best
	}

	// seed fills the frontier with the group nodes that have an ordered
	// neighbor in adj (predecessors for a top-down sweep, successors for a
	// bottom-up one).
	seed := func(adj [][]int) {
		for _, w := range inGroup.list {
			for _, x := range adj[w] {
				if ordered[x] {
					frontier.add(w)
					break
				}
			}
		}
	}

	for _, group := range lp.groups {
		inGroup.clear()
		for _, v := range group {
			if !ordered[v] {
				inGroup.add(v)
			}
		}
		for inGroup.len() > 0 {
			// Seed set: group nodes adjacent to already-ordered nodes, top
			// down from ordered predecessors if there are any, else bottom
			// up from ordered successors.
			frontier.clear()
			topDown := true
			seed(preds)
			if frontier.len() == 0 {
				topDown = false
				seed(succs)
			}
			if frontier.len() == 0 {
				// Nothing ordered yet touches this group: start top-down
				// from the group's most critical source-like node.
				topDown = true
				frontier.add(pick(inGroup, true))
			}
			// Sweep until the frontier empties; then swing direction.
			for frontier.len() > 0 {
				v := pick(frontier, topDown)
				frontier.remove(v)
				if ordered[v] {
					continue
				}
				ordered[v] = true
				inGroup.remove(v)
				order = append(order, v)
				// Grow the frontier along the sweep direction.
				next := preds[v]
				if topDown {
					next = succs[v]
				}
				for _, w := range next {
					if inGroup.has(w) && !ordered[w] {
						frontier.add(w)
					}
				}
				if frontier.len() == 0 {
					// Swing: continue in the opposite direction from the
					// nodes adjacent to what has been ordered so far.
					topDown = !topDown
					if topDown {
						seed(preds)
					} else {
						seed(succs)
					}
					if frontier.len() == 0 {
						break // disconnected remainder: outer loop reseeds
					}
				}
			}
		}
	}
	scr.order = order
	return order
}

// buildGroups returns the SMS set list: one group per recurrence in
// decreasing RecMII order, each union the nodes on paths between it and the
// previously grouped nodes; remaining nodes form one final group per
// weakly-connected component (found over preds and succs). Every node is in
// exactly one group, so the groups share one backing array. Order uses a
// group only as a set: the order of its members is immaterial.
func buildGroups(g *ddg.Graph, preds, succs [][]int) [][]int {
	n := g.N()
	recs := g.Recurrences()
	grouped := make([]bool, 2*n)
	grouped, group := grouped[:n:n], grouped[n:] // group: the one being built
	flat := make([]int, 0, n)
	var groups [][]int

	reach := reachability(g)

	for _, rec := range recs {
		empty := true
		for _, v := range rec.Nodes {
			if !grouped[v] {
				group[v], empty = true, false
			}
		}
		if empty {
			continue
		}
		// Nodes on paths between earlier groups and this recurrence:
		// v with (grouped ⇝ v and v ⇝ rec) or (rec ⇝ v and v ⇝ grouped).
		for v := 0; v < n; v++ {
			if grouped[v] || group[v] {
				continue
			}
			fromPrev, toPrev := false, false
			for w := 0; w < n; w++ {
				if grouped[w] {
					if reach[w*n+v] {
						fromPrev = true
					}
					if reach[v*n+w] {
						toPrev = true
					}
				}
			}
			toRec, fromRec := false, false
			for _, w := range rec.Nodes {
				if reach[v*n+w] {
					toRec = true
				}
				if reach[w*n+v] {
					fromRec = true
				}
			}
			if (fromPrev && toRec) || (fromRec && toPrev) {
				group[v] = true
			}
		}
		start := len(flat)
		for v := 0; v < n; v++ {
			if group[v] {
				flat = append(flat, v)
				grouped[v], group[v] = true, false
			}
		}
		groups = append(groups, flat[start:])
	}

	// Remaining nodes: weakly-connected components, in node-ID order of
	// their first member.
	var stack []int
	for v := 0; v < n; v++ {
		if grouped[v] {
			continue
		}
		start := len(flat)
		stack = append(stack[:0], v)
		grouped[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			flat = append(flat, x)
			for _, adj := range [2][]int{succs[x], preds[x]} {
				for _, w := range adj {
					if !grouped[w] {
						grouped[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		groups = append(groups, flat[start:])
	}
	return groups
}

// reachability returns the boolean transitive closure over all edges,
// flattened: v reaches w when reach[v*n+w] (O(n·E) DFS per node; loop
// bodies are small).
func reachability(g *ddg.Graph) []bool {
	n := g.N()
	reach := make([]bool, n*n)
	seen := make([]bool, n)
	var stack []int
	for v := 0; v < n; v++ {
		row := reach[v*n : (v+1)*n]
		clear(seen)
		seen[v] = true
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Out(x) {
				w := g.Edges[ei].To
				if !seen[w] {
					seen[w] = true
					row[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return reach
}
