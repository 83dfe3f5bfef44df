package schedule

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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
// on the medium loop: the Loop's groups and adjacency, the attempt state's
// tables, the value routing each placement creates and the finished
// Schedule — all O(N). The loop probes hundreds of candidate slots, so an
// allocation per candidate would exceed it several times over. Measured:
// 171 allocations on the 40-node loop.
const tryScheduleAllocsPerNode = 5

func TestTryScheduleAllocsBounded(t *testing.T) {
	g, m, assign, ii := mediumLoop(t)
	opts := &Options{Mode: ModeGP, Assign: assign}
	n := testing.AllocsPerRun(5, func() { TrySchedule(g, m, ii, opts) })
	if bound := float64(tryScheduleAllocsPerNode * g.N()); n > bound {
		t.Errorf("TrySchedule made %v allocations on a %d-node loop, want ≤ %v", n, g.N(), bound)
	}
	// An attempt in a warmed Workspace of a built Loop allocates only what
	// its placements route and the Schedule it returns.
	lp, ws := NewLoop(g, m), &Workspace{}
	lp.TryContext(context.Background(), ws, ii, opts)
	reused := testing.AllocsPerRun(5, func() { lp.TryContext(context.Background(), ws, ii, opts) })
	t.Logf("TrySchedule: %v allocations; reused Loop and Workspace: %v", n, reused)
	if reused >= n/2 {
		t.Errorf("TryContext in a reused Workspace made %v allocations, want < half of TrySchedule's %v", reused, n)
	}
}

// TestWorkspaceReuseMatchesFresh pins the Workspace rule: an attempt's
// outcome does not depend on what the Workspace ran before — other IIs,
// higher and lower, other modes and other loops and machines.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	machines := []*machine.Config{machine.MustClustered(2, 32, 1, 1), machine.MustClustered(4, 64, 1, 2)}
	var ws Workspace
	for trial := 0; trial < 30; trial++ {
		g := randomLoop(r, 5+r.Intn(40))
		m := machines[trial%len(machines)]
		lp := NewLoop(g, m)
		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = r.Intn(m.Clusters)
		}
		mii := g.MII(m)
		for _, ii := range []int{mii + 3, mii, mii + 1, mii + 7, mii + 2} {
			for _, opts := range []*Options{{Mode: ModeGP, Assign: assign}, {Mode: ModeFixed, Assign: assign}, {Mode: ModeURACAM}} {
				want, wantFail := TrySchedule(g, m, ii, opts)
				got, gotFail, err := lp.TryContext(context.Background(), &ws, ii, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFail, wantFail) {
					t.Fatalf("trial %d II %d mode %v: reused Workspace gave %+v, %v; fresh gave %+v, %v",
						trial, ii, opts.Mode, got, gotFail, want, wantFail)
				}
			}
		}
	}
}

// TestTryContextCanceled pins that a done context stops an attempt and
// returns its error with neither a schedule nor a failure.
func TestTryContextCanceled(t *testing.T) {
	g, m, assign, ii := mediumLoop(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, fail, err := NewLoop(g, m).TryContext(ctx, nil, ii, &Options{Mode: ModeGP, Assign: assign})
	if !errors.Is(err, context.Canceled) || s != nil || fail != nil {
		t.Fatalf("TryContext on a canceled context = %v, %v, %v; want nil, nil, context.Canceled", s, fail, err)
	}
}
