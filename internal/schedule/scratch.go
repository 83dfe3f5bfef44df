package schedule

import "repro/internal/regpress"

// scratch is the candidate loop's reusable storage. Every candidate
// (cluster, cycle) slot of one II attempt is planned, register-checked and
// compared in these buffers, so probing a slot allocates nothing once the
// buffers have grown to the loop's size. It is created by newState and
// owned by that state's TrySchedule call: portfolio racers and parallel
// bench runners each schedule in their own state and share nothing.
//
// Buffers keep capacity between candidates, never content: each user
// resets what it reads before reading it.
type scratch struct {
	// planPlace: tentative transfer occupancy by channel·II+slot and
	// memory-port occupancy by cluster·II+slot.
	xfer, mem deltas
	// movedTo lists the transfers planned so far for a (value,
	// destination) pair, created or moved (several in-edges may read the
	// same producer).
	movedTo []plannedXfer
	// crossNeeds is the earliest deadline of v's consumers per remote
	// cluster, noUse where there is none.
	crossNeeds []int
	addUnits   []int64 // net register lifetime added per cluster
	memUsed    []int64 // memory slots claimed per cluster

	// bestCandidate's plan buffers: the best so far and the next to fill.
	plans [2]plan
	// betterMerit's sorted copies of the two merits it compares.
	meritA, meritB merit
	// placeNode's candidate cluster list, with capacity for every cluster.
	clusters []int

	// checkRegs: a hypothetical view per node, valid for the nodes in
	// viewed, plus the spans removed and added in one cluster.
	views    []regView
	viewed   nodeSet
	rem, add []regpress.Span

	touched nodeSet // apply's touched values
	targets []target
}

func newScratch(n, clusters, channels, ii int) scratch {
	sc := scratch{
		xfer:       newDeltas(channels * ii),
		mem:        newDeltas(clusters * ii),
		crossNeeds: make([]int, clusters),
		addUnits:   make([]int64, clusters),
		memUsed:    make([]int64, clusters),
		clusters:   make([]int, 0, clusters),
		views:      make([]regView, n),
		viewed:     newNodeSet(n),
		touched:    newNodeSet(n),
	}
	uses := make([]int, 2*n*clusters)
	for i := range sc.views {
		vw := &sc.views[i]
		vw.minUse, uses = uses[:clusters:clusters], uses[clusters:]
		vw.maxUse, uses = uses[:clusters:clusters], uses[clusters:]
	}
	return sc
}

// deltas is a dense table of tentative occupancy changes with a list of
// the indices touched since the last reset. An index is listed once even
// when its delta returns to zero and moves again (0→1→0→1 within one
// plan), so reset costs what was touched, not the table size.
type deltas struct {
	d       []int
	marked  []bool
	touched []int
}

func newDeltas(n int) deltas {
	return deltas{d: make([]int, n), marked: make([]bool, n)}
}

func (ds *deltas) add(i, delta int) {
	if !ds.marked[i] {
		ds.marked[i] = true
		ds.touched = append(ds.touched, i)
	}
	ds.d[i] += delta
}

func (ds *deltas) reset() {
	for _, i := range ds.touched {
		ds.d[i], ds.marked[i] = 0, false
	}
	ds.touched = ds.touched[:0]
}

// plannedXfer is a transfer start planned for value val toward dest (-1
// for a shared-bus broadcast).
type plannedXfer struct {
	val, dest, start int
}

// nodeSet is a set of node IDs kept in first-insertion order and emptied
// in O(1) by advancing a generation stamp.
type nodeSet struct {
	stamp []uint32
	gen   uint32
	list  []int
}

func newNodeSet(n int) nodeSet { return nodeSet{stamp: make([]uint32, n), gen: 1} }

func (s *nodeSet) clear() {
	s.list = s.list[:0]
	if s.gen++; s.gen == 0 { // wrapped: old stamps would look current
		clear(s.stamp)
		s.gen = 1
	}
}

// add inserts id and reports whether it was absent.
func (s *nodeSet) add(id int) bool {
	if s.stamp[id] == s.gen {
		return false
	}
	s.stamp[id] = s.gen
	s.list = append(s.list, id)
	return true
}

// regView is checkRegs' hypothetical copy of one touched value: tmp is the
// value as the plan would leave it, built in view-owned storage so the
// real value is never mutated and nothing is allocated per candidate.
type regView struct {
	val *value // the current value; nil for the placed node's new value
	tmp value

	minUse, maxUse []int       // tmp's per-cluster use bounds
	comm           comm        // tmp's transfer routing, when it has one
	mem            memRoute    // tmp's memory routing, when it has one
	dests, loads   map[int]int // backing maps for comm.dests and mem.loads
}

// fresh makes the view the new value of a node placed in cluster home and
// written at def.
func (vw *regView) fresh(home, def int) {
	for c := range vw.minUse {
		vw.minUse[c], vw.maxUse[c] = noUse, noUse
	}
	vw.val = nil
	vw.tmp = value{home: home, def: def, minUse: vw.minUse, maxUse: vw.maxUse}
}

// copyOf makes the view a copy of val that can be changed independently.
func (vw *regView) copyOf(val *value) {
	copy(vw.minUse, val.minUse)
	copy(vw.maxUse, val.maxUse)
	vw.val = val
	vw.tmp = *val
	vw.tmp.minUse, vw.tmp.maxUse = vw.minUse, vw.maxUse
	if val.comm != nil {
		vw.comm = *val.comm
		if val.comm.dests != nil {
			vw.comm.dests = emptyMap(&vw.dests)
			for k, x := range val.comm.dests {
				vw.comm.dests[k] = x
			}
		}
		vw.tmp.comm = &vw.comm
	}
	if val.mem != nil {
		vw.mem = *val.mem
		vw.mem.loads = emptyMap(&vw.loads)
		for k, x := range val.mem.loads {
			vw.mem.loads[k] = x
		}
		vw.tmp.mem = &vw.mem
	}
}

// setXfer records a planned transfer start on the view: the broadcast
// start on the shared bus, one dests entry per link on point-to-point
// machines.
func (vw *regView) setXfer(dest, start int) {
	tmp := &vw.tmp
	if dest < 0 {
		if tmp.comm == nil {
			vw.comm = comm{}
			tmp.comm = &vw.comm
		}
		tmp.comm.start = start
		return
	}
	if tmp.comm == nil {
		vw.comm = comm{dests: emptyMap(&vw.dests)}
		tmp.comm = &vw.comm
	} else if tmp.comm.dests == nil {
		tmp.comm.dests = emptyMap(&vw.dests)
	}
	tmp.comm.dests[dest] = start
}

// emptyMap clears *m, creating it on first use, and returns it.
func emptyMap(m *map[int]int) map[int]int {
	if *m == nil {
		*m = map[int]int{}
	} else {
		clear(*m)
	}
	return *m
}
