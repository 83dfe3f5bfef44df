package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// mediumLoop is the medium bench loop: a 40-node random loop on the
// 2-cluster machine with a round-robin assignment, and the first II at
// which GP schedules it.
func mediumLoop(tb testing.TB) (*ddg.Graph, *machine.Config, []int, int) {
	tb.Helper()
	g := randomLoop(rand.New(rand.NewSource(51)), 40)
	m := machine.MustClustered(2, 32, 1, 1)
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v % 2
	}
	for ii := g.MII(m); ii < g.MII(m)+64; ii++ {
		if _, fail := TrySchedule(g, m, ii, &Options{Mode: ModeGP, Assign: assign}); fail == nil {
			return g, m, assign, ii
		}
	}
	tb.Fatal("medium loop unschedulable")
	return nil, nil, nil, 0
}

// halfPlaced returns a state with the first half of the SMS order placed
// under GP, the next node to place and the static start times.
func halfPlaced(t *testing.T, g *ddg.Graph, m *machine.Config, assign []int, ii int) (*state, int, *ddg.Times) {
	t.Helper()
	st := newState(g, m, ii)
	static, ok := g.StartTimes(m, ii, nil)
	if !ok {
		t.Fatal("infeasible II")
	}
	order := Order(g, m, ii)
	opts := &Options{Mode: ModeGP, Assign: assign}
	for _, v := range order[:len(order)/2] {
		if placed, fail := st.placeNode(v, opts, static); !placed {
			t.Fatalf("node %d unplaceable: %v", v, fail)
		}
	}
	return st, order[len(order)/2], static
}

// TestPlanPlaceAllocFree pins the candidate loop's allocation-free
// contract: on a warmed state, planning a candidate slot — feasible, or
// rejected after routing and register checks — allocates nothing.
func TestPlanPlaceAllocFree(t *testing.T) {
	g, m2, assign, ii := mediumLoop(t)
	p2p := machine.MustHetero("p2p", []machine.ClusterSpec{
		{Units: m2.Units, Regs: m2.RegsPerCluster},
		{Units: m2.Units, Regs: m2.RegsPerCluster},
	}, machine.PointToPoint, 1, 1, false)
	for _, m := range []*machine.Config{m2, p2p} {
		st, v, static := halfPlaced(t, g, m, assign, ii)
		// Candidates around v's window in both clusters: the first
		// feasible one and the first that fails past the FU check.
		feasible, infeasible := [2]int{-1, 0}, [2]int{-1, 0}
		var p plan
		for c := 0; c < m.Clusters; c++ {
			for cyc := -2 * ii; cyc < 4*ii; cyc++ {
				switch reason := st.planPlace(v, c, cyc, &p); {
				case reason == FailNone && feasible[0] < 0:
					feasible = [2]int{c, cyc}
				case reason != FailNone && reason != FailFU && infeasible[0] < 0:
					infeasible = [2]int{c, cyc}
				}
			}
		}
		if feasible[0] < 0 || infeasible[0] < 0 {
			t.Fatalf("%s: no feasible (%v) or no infeasible (%v) candidate for node %d", m.Name, feasible, infeasible, v)
		}
		for _, cand := range [][2]int{feasible, infeasible} {
			if n := testing.AllocsPerRun(100, func() { st.planPlace(v, cand[0], cand[1], &p) }); n != 0 {
				t.Errorf("%s: planPlace(%d, %d, %d) made %v allocations, want 0", m.Name, v, cand[0], cand[1], n)
			}
		}
		if n := testing.AllocsPerRun(20, func() { st.bestCandidate(v, []int{0, 1}, 0.05, static) }); n != 0 {
			t.Errorf("%s: bestCandidate made %v allocations, want 0", m.Name, n)
		}
	}
}

// tryScheduleAllocsPerNode bounds TrySchedule's allocations per loop node
// on the medium loop: newState's tables, Order and StartTimes, the
// value routing each placement creates and the finished Schedule — all
// O(N). The loop probes hundreds of candidate slots, so an allocation per
// candidate would exceed it several times over.
const tryScheduleAllocsPerNode = 12

func TestTryScheduleAllocsBounded(t *testing.T) {
	g, m, assign, ii := mediumLoop(t)
	opts := &Options{Mode: ModeGP, Assign: assign}
	n := testing.AllocsPerRun(5, func() { TrySchedule(g, m, ii, opts) })
	if bound := float64(tryScheduleAllocsPerNode * g.N()); n > bound {
		t.Errorf("TrySchedule made %v allocations on a %d-node loop, want ≤ %v", n, g.N(), bound)
	}
}
