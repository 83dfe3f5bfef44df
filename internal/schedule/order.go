package schedule

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

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
	n := g.N()
	if n == 0 {
		return nil
	}
	times, ok := g.StartTimes(m, ii, nil)
	if !ok {
		// An ii below RecMII has no start times (TrySchedule then fails
		// the attempt with FailWindow); fall back to the smallest
		// feasible II to keep Order total.
		times, _ = g.StartTimes(m, g.RecMII(nil), nil)
	}

	groups := buildGroups(g)
	ordered := make([]bool, n)
	order := make([]int, 0, n)

	// Adjacency over all dependence edges (data and memory ordering alike:
	// both constrain placement windows).
	preds := make([][]int, n)
	succs := make([][]int, n)
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		preds[e.To] = append(preds[e.To], e.From)
		succs[e.From] = append(succs[e.From], e.To)
	}

	mobility := func(v int) int { return times.Latest[v] - times.Earliest[v] }

	// pick returns the best candidate of set under the sweep direction:
	// most critical first (lowest mobility); ties prefer earlier ASAP for
	// top-down sweeps and later ALAP for bottom-up ones; final tie on ID.
	pick := func(set map[int]bool, topDown bool) int {
		best := -1
		for v := range set {
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

	for _, group := range groups {
		inGroup := make(map[int]bool, len(group))
		for _, v := range group {
			if !ordered[v] {
				inGroup[v] = true
			}
		}
		for len(inGroup) > 0 {
			// Seed set: group nodes adjacent to already-ordered nodes.
			td := map[int]bool{} // have an ordered predecessor → top-down
			bu := map[int]bool{} // have an ordered successor → bottom-up
			for v := range inGroup {
				for _, p := range preds[v] {
					if ordered[p] {
						td[v] = true
						break
					}
				}
				for _, s := range succs[v] {
					if ordered[s] {
						bu[v] = true
						break
					}
				}
			}
			topDown := true
			var frontier map[int]bool
			switch {
			case len(td) > 0:
				frontier = td
			case len(bu) > 0:
				frontier, topDown = bu, false
			default:
				// Nothing ordered yet touches this group: start top-down
				// from the group's most critical source-like node.
				frontier = map[int]bool{pick(inGroup, true): true}
			}
			// Sweep until the frontier empties; then swing direction.
			for len(frontier) > 0 {
				v := pick(frontier, topDown)
				delete(frontier, v)
				if ordered[v] {
					continue
				}
				ordered[v] = true
				delete(inGroup, v)
				order = append(order, v)
				// Grow the frontier along the sweep direction.
				var next []int
				if topDown {
					next = succs[v]
				} else {
					next = preds[v]
				}
				for _, w := range next {
					if inGroup[w] && !ordered[w] {
						frontier[w] = true
					}
				}
				if len(frontier) == 0 {
					// Swing: continue in the opposite direction from the
					// nodes adjacent to what has been ordered so far.
					topDown = !topDown
					for w := range inGroup {
						adj := preds[w]
						if !topDown {
							adj = succs[w]
						}
						for _, x := range adj {
							if ordered[x] {
								frontier[w] = true
								break
							}
						}
					}
					if len(frontier) == 0 {
						break // disconnected remainder: outer loop reseeds
					}
				}
			}
		}
	}
	return order
}

// buildGroups returns the SMS set list: one group per recurrence in
// decreasing RecMII order, each union the nodes on paths between it and the
// previously grouped nodes; remaining nodes form one final group per
// weakly-connected component.
func buildGroups(g *ddg.Graph) [][]int {
	n := g.N()
	recs := g.Recurrences()
	grouped := make([]bool, n)
	var groups [][]int

	reach := reachability(g)

	for _, rec := range recs {
		group := map[int]bool{}
		for _, v := range rec.Nodes {
			if !grouped[v] {
				group[v] = true
			}
		}
		if len(group) == 0 {
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
		flat := make([]int, 0, len(group))
		for v := 0; v < n; v++ {
			if group[v] {
				flat = append(flat, v)
				grouped[v] = true
			}
		}
		groups = append(groups, flat)
	}

	// Remaining nodes: weakly-connected components, in node-ID order.
	undirected := make([][]int, n)
	for _, e := range g.Edges {
		if e.From != e.To {
			undirected[e.From] = append(undirected[e.From], e.To)
			undirected[e.To] = append(undirected[e.To], e.From)
		}
	}
	for v := 0; v < n; v++ {
		if grouped[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		grouped[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for _, w := range undirected[x] {
				if !grouped[w] {
					grouped[w] = true
					stack = append(stack, w)
				}
			}
		}
		groups = append(groups, comp)
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
