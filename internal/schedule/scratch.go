package schedule

import "repro/internal/regpress"

// scratch is the candidate loop's reusable storage. Every candidate
// (cluster, cycle) slot of one II attempt is planned, register-checked and
// compared in these buffers, so probing a slot allocates nothing once the
// buffers have grown to the loop's size. It belongs to one state, and so
// to one Workspace: concurrent attempts each schedule in their own and
// share nothing.
//
// Buffers keep capacity between candidates and between attempts, never
// content: each user resets what it reads before reading it, and reset
// zeroes what no user does.
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

// reset readies the scratch for an attempt at ii on a loop of n nodes,
// keeping every buffer's capacity. Only the occupancy tables are sized by
// the II, and they start each attempt zeroed; the rest is reset by its
// users before they read it.
func (sc *scratch) reset(n, clusters, channels, ii int) {
	sc.xfer.resize(channels * ii)
	sc.mem.resize(clusters * ii)
	sc.crossNeeds = resizeInts(sc.crossNeeds, clusters)
	sc.addUnits = resizeInt64s(sc.addUnits, clusters)
	sc.memUsed = resizeInt64s(sc.memUsed, clusters)
	if cap(sc.clusters) < clusters {
		sc.clusters = make([]int, 0, clusters)
	}
	if len(sc.views) != n || n > 0 && len(sc.views[0].minUse) != clusters {
		sc.views = make([]regView, n)
		uses := make([]int, 2*n*clusters)
		for i := range sc.views {
			vw := &sc.views[i]
			vw.minUse, uses = uses[:clusters:clusters], uses[clusters:]
			vw.maxUse, uses = uses[:clusters:clusters], uses[clusters:]
		}
	}
	sc.viewed.resize(n)
	sc.touched.resize(n)
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

// resize makes ds an all-zero table of n entries, keeping its capacity.
func (ds *deltas) resize(n int) {
	ds.d = resizeInts(ds.d, n)
	ds.marked = resizeBools(ds.marked, n)
	clear(ds.d)
	clear(ds.marked)
	ds.touched = ds.touched[:0]
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

// nodeSet is a set of node IDs emptied in O(1) by advancing a generation
// stamp. list holds the members in first-insertion order until the first
// remove, which moves the last member into the removed one's place.
type nodeSet struct {
	stamp []uint32
	gen   uint32
	list  []int
	pos   []int32 // member → its index in list
}

// resize makes s an empty set over node IDs 0..n-1, keeping its storage's
// capacity.
func (s *nodeSet) resize(n int) {
	if cap(s.stamp) >= n {
		s.stamp, s.pos = s.stamp[:n], s.pos[:n]
	} else {
		s.stamp, s.pos, s.list = make([]uint32, n), make([]int32, n), make([]int, 0, n)
	}
	s.clear()
}

func (s *nodeSet) clear() {
	s.list = s.list[:0]
	if s.gen++; s.gen == 0 { // wrapped: old stamps would look current
		clear(s.stamp[:cap(s.stamp)])
		s.gen = 1
	}
}

func (s *nodeSet) has(id int) bool { return s.stamp[id] == s.gen }

func (s *nodeSet) len() int { return len(s.list) }

// add inserts id and reports whether it was absent.
func (s *nodeSet) add(id int) bool {
	if s.stamp[id] == s.gen {
		return false
	}
	s.stamp[id] = s.gen
	s.pos[id] = int32(len(s.list))
	s.list = append(s.list, id)
	return true
}

// remove deletes id if present. Stamp 0 is never a current generation.
func (s *nodeSet) remove(id int) {
	if s.stamp[id] != s.gen {
		return
	}
	s.stamp[id] = 0
	i, last := s.pos[id], s.list[len(s.list)-1]
	s.list[i], s.pos[last] = last, i
	s.list = s.list[:len(s.list)-1]
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

// resizeInts returns s resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
