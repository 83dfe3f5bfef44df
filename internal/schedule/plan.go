package schedule

import (
	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// FailReason classifies why a placement (or a whole node) failed; it seeds
// the choice of transformation (§3.3.2: start with the most saturated
// resource).
type FailReason int8

const (
	FailNone   FailReason = iota
	FailFU                // no functional-unit slot in the window
	FailWindow            // dependence window empty
	FailBus               // no bus slot for a required communication
	FailRegs              // register file would overflow
	FailMem               // no memory port for a required load
)

var failNames = [...]string{"none", "fu", "window", "bus", "regs", "mem"}

// String returns a short name for the failure reason.
func (f FailReason) String() string { return failNames[f] }

// commPlan is a new transfer for the value produced by val. dest is the
// destination cluster on point-to-point links and -1 for a shared-bus
// broadcast.
type commPlan struct {
	val   int
	dest  int
	start int
}

// movePlan reschedules an existing transfer of val from old to new (always
// earlier, to meet a tighter consumer deadline; existing consumers only see
// the value arrive sooner). dest is -1 for a shared-bus broadcast.
type movePlan struct {
	val      int
	dest     int
	old, new int
}

// loadPlan adds a load of a memory-routed value into a cluster.
type loadPlan struct {
	val     int
	cluster int
	cycle   int
}

// usePlan records a consumer read: value val is read in cluster at cycle
// use (consumer start + II·dist).
type usePlan struct {
	val     int
	cluster int
	use     int
}

// plan is a fully-checked tentative placement of node v at (cluster, t).
type plan struct {
	v, cluster, t int

	comms []commPlan
	moves []movePlan
	loads []loadPlan
	uses  []usePlan

	merit merit
}

// merit is the §3.3.1 figure of merit: the fractions of remaining bus,
// per-cluster memory and per-cluster register-lifetime capacity this
// placement consumes (2·NClusters+1 components, with the per-cluster
// memory components of the §3.3.4 extension).
type merit []float64

// betterMerit reports whether a beats b: components sorted in decreasing
// order are compared pairwise until one pair differs by more than
// threshold (the smaller component wins); otherwise the smaller sum wins.
// The sorted copies live in the scratch.
func (sc *scratch) betterMerit(a, b merit, threshold float64) bool {
	as := sortDesc(append(sc.meritA[:0], a...))
	bs := sortDesc(append(sc.meritB[:0], b...))
	sc.meritA, sc.meritB = as, bs
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		if d := as[i] - bs[i]; d > threshold {
			return false
		} else if d < -threshold {
			return true
		}
	}
	var sa, sb float64
	for _, x := range as {
		sa += x
	}
	for _, x := range bs {
		sb += x
	}
	return sa < sb
}

// sortDesc sorts f in decreasing order in place (insertion sort: a merit
// has 2·NClusters+1 components) and returns it.
func sortDesc(f merit) merit {
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j] > f[j-1]; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
	return f
}

// reset empties p for a placement of node v at (cluster, t), keeping its
// buffers' capacity.
func (p *plan) reset(v, cluster, t int) {
	p.v, p.cluster, p.t = v, cluster, t
	p.comms = p.comms[:0]
	p.moves = p.moves[:0]
	p.loads = p.loads[:0]
	p.uses = p.uses[:0]
	p.merit = p.merit[:0]
}

// slot returns the modulo slot of cycle cyc.
func (st *state) slot(cyc int) int {
	s := cyc % st.ii
	if s < 0 {
		s += st.ii
	}
	return s
}

// canXfer reports whether a src→dst transfer departing at start fits the
// channel's occupancy plus the plan's tentative deltas.
func (st *state) canXfer(src, dst, start int) bool {
	m := st.m
	if m.NBus == 0 || (!m.Pipelined && m.LatBus >= st.ii) {
		return false
	}
	ch := st.rt.Channel(src, dst)
	for d := 0; d < m.XferOccupancy(); d++ {
		s := st.slot(start + d)
		if st.rt.ChannelAt(ch, s)+st.sc.xfer.d[ch*st.ii+s] >= m.NBus {
			return false
		}
	}
	return true
}

// shiftXfer adds delta to the tentative occupancy of a src→dst transfer
// departing at start: +1 takes it, −1 drops it.
func (st *state) shiftXfer(src, dst, start, delta int) {
	ch := st.rt.Channel(src, dst)
	for d := 0; d < st.m.XferOccupancy(); d++ {
		st.sc.xfer.add(ch*st.ii+st.slot(start+d), delta)
	}
}

// canMem reports whether cluster cl has a memory port free at cycle cyc
// beyond the plan's tentative loads.
func (st *state) canMem(cl, cyc int) bool {
	s := st.slot(cyc)
	return st.rt.MemAt(cl, s)+st.sc.mem.d[cl*st.ii+s] < st.m.UnitsIn(cl, isa.MemUnit)
}

// takeMem claims a memory port in cluster cl at cycle cyc for the plan.
func (st *state) takeMem(cl, cyc int) { st.sc.mem.add(cl*st.ii+st.slot(cyc), 1) }

// movedXfer returns the index in sc.movedTo of the planned transfer of
// value id toward dest, or -1.
func (sc *scratch) movedXfer(id, dest int) int {
	for i, x := range sc.movedTo {
		if x.val == id && x.dest == dest {
			return i
		}
	}
	return -1
}

// planPlace attempts to construct a placement of node v at (c, t) into p:
// it checks the functional unit, routes every dependence with already
// scheduled endpoints (reusing, moving or creating bus transfers; reusing
// or extending memory routes), verifies register capacity in every touched
// cluster, and computes the figure of merit. It never mutates the state
// outside its scratch, and p is complete only when it returns FailNone.
func (st *state) planPlace(v, c, t int, p *plan) FailReason {
	g, m, ii := st.g, st.m, st.ii
	sc := &st.sc
	node := g.Nodes[v]

	if !st.rt.CanPlaceOp(c, node.Op.Unit(), t) {
		return FailFU
	}

	p.reset(v, c, t)
	p2p := st.p2p()
	// The tentative memory loads start with v's own reservation when v is
	// a memory operation, so a planned load cannot claim the same last
	// free port.
	sc.xfer.reset()
	sc.mem.reset()
	sc.movedTo = sc.movedTo[:0]
	if node.Op.Unit() == isa.MemUnit {
		st.takeMem(c, t)
	}

	def := t + m.OpLatency(node.Op) // when v's value is written

	// commAt returns the departure of the transfer carrying value id to
	// dest: the one planned so far, else the value's existing one.
	commAt := func(val *value, id, dest int) (int, bool) {
		if i := sc.movedXfer(id, dest); i >= 0 {
			return sc.movedTo[i].start, true
		}
		if val.comm != nil {
			return val.comm.startFor(dest, p2p)
		}
		return 0, false
	}

	// Incoming data dependences from scheduled producers.
	for _, ei := range g.In(v) {
		e := g.Edges[ei]
		u := e.From
		if !st.sched[u] {
			continue
		}
		need := t + ii*e.Dist
		if e.Kind != ddg.Data {
			if st.time[u]+e.Lat > need {
				return FailWindow
			}
			continue
		}
		val := st.vals[u]
		uc := st.cluster[u]
		if st.time[u]+e.Lat > need || val.def > need {
			return FailWindow
		}
		if uc == c {
			// A spilled value is register-dead between its store and the
			// reload completion: new home uses must wait for the reload.
			if val.spill != nil && need > val.spill.store && need < val.spill.load+m.OpLatency(isa.Load) {
				return FailWindow
			}
			p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
			continue
		}
		// Cross-cluster read.
		if val.mem != nil {
			if l, ok := val.mem.loads[c]; ok {
				if l+m.OpLatency(isa.Load) > need {
					return FailWindow
				}
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				continue
			}
			// Add a load in c: latest feasible slot keeps the lifetime short.
			lo := val.mem.store + m.OpLatency(isa.Store)
			hi := need - m.OpLatency(isa.Load)
			found := false
			for l := hi; l >= lo && l > hi-ii; l-- {
				if st.canMem(c, l) {
					p.loads = append(p.loads, loadPlan{val: u, cluster: c, cycle: l})
					st.takeMem(c, l)
					p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
					found = true
					break
				}
			}
			if !found {
				return FailMem
			}
			continue
		}
		dest := -1 // shared bus: one broadcast serves every cluster
		if p2p {
			dest = c // point-to-point: a dedicated transfer must reach c
		}
		if start, ok := commAt(val, u, dest); ok {
			if start+m.LatBus <= need {
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				continue
			}
			// Try moving the transfer earlier (never violates the comm's
			// existing consumers: they only see the value arrive sooner).
			moved := false
			for s := need - m.LatBus; s >= val.def && s > need-m.LatBus-ii; s-- {
				if !xferDepartOK(val, s, m) {
					continue
				}
				st.shiftXfer(uc, c, start, -1)
				if st.canXfer(uc, c, s) {
					st.shiftXfer(uc, c, s, +1)
					if mi := sc.movedXfer(u, dest); mi >= 0 {
						// The transfer was created or moved earlier in this
						// plan: update that entry (a plan-created transfer
						// lives in p.comms, a moved existing one in p.moves).
						updated := false
						for i := range p.moves {
							if p.moves[i].val == u && p.moves[i].dest == dest {
								p.moves[i].new = s
								updated = true
							}
						}
						if !updated {
							for i := range p.comms {
								if p.comms[i].val == u && p.comms[i].dest == dest {
									p.comms[i].start = s
								}
							}
						}
						sc.movedTo[mi].start = s
					} else {
						old, _ := val.comm.startFor(dest, p2p)
						p.moves = append(p.moves, movePlan{val: u, dest: dest, old: old, new: s})
						sc.movedTo = append(sc.movedTo, plannedXfer{val: u, dest: dest, start: s})
					}
					p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
					moved = true
					break
				}
				st.shiftXfer(uc, c, start, +1)
			}
			if !moved {
				return FailBus
			}
			continue
		}
		// New transfer: earliest feasible start preserves later flexibility.
		placed := false
		for s := val.def; s+m.LatBus <= need && s < val.def+ii; s++ {
			if !xferDepartOK(val, s, m) {
				continue
			}
			if st.canXfer(uc, c, s) {
				st.shiftXfer(uc, c, s, +1)
				p.comms = append(p.comms, commPlan{val: u, dest: dest, start: s})
				sc.movedTo = append(sc.movedTo, plannedXfer{val: u, dest: dest, start: s})
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				placed = true
				break
			}
		}
		if !placed {
			return FailBus
		}
	}

	// Outgoing dependences toward scheduled consumers: v must deliver.
	crossNeeds := sc.crossNeeds // dest cluster → earliest deadline
	for wc := range crossNeeds {
		crossNeeds[wc] = noUse
	}
	anyCross := false
	for _, ei := range g.Out(v) {
		e := g.Edges[ei]
		w := e.To
		if !st.sched[w] || w == v {
			continue
		}
		need := st.time[w] + ii*e.Dist
		if t+e.Lat > need {
			return FailWindow
		}
		if e.Kind != ddg.Data {
			continue
		}
		wc := st.cluster[w]
		if wc == c {
			if def > need {
				return FailWindow
			}
			p.uses = append(p.uses, usePlan{val: v, cluster: c, use: need})
			continue
		}
		if cur := crossNeeds[wc]; cur == noUse || need < cur {
			crossNeeds[wc] = need
		}
		anyCross = true
		p.uses = append(p.uses, usePlan{val: v, cluster: wc, use: need})
	}
	if anyCross {
		if p2p {
			// One transfer per destination link, each meeting that
			// destination's own deadline (deterministic cluster order).
			for wc, need := range crossNeeds {
				if need == noUse {
					continue
				}
				placed := false
				for s := def; s+m.LatBus <= need && s < def+ii; s++ {
					if st.canXfer(c, wc, s) {
						st.shiftXfer(c, wc, s, +1)
						p.comms = append(p.comms, commPlan{val: v, dest: wc, start: s})
						placed = true
						break
					}
				}
				if !placed {
					return FailBus
				}
			}
		} else {
			// One broadcast transfer must meet the tightest deadline.
			minNeed := 1 << 30
			for _, n := range crossNeeds {
				if n != noUse && n < minNeed {
					minNeed = n
				}
			}
			placed := false
			for s := def; s+m.LatBus <= minNeed && s < def+ii; s++ {
				if st.canXfer(c, -1, s) {
					st.shiftXfer(c, -1, s, +1)
					p.comms = append(p.comms, commPlan{val: v, dest: -1, start: s})
					placed = true
					break
				}
			}
			if !placed {
				return FailBus
			}
		}
	}

	// Register capacity: rebuild the spans of every touched value under the
	// planned routing and check each affected cluster.
	addUnits := sc.addUnits
	clear(addUnits)
	if !st.checkRegs(p, def, addUnits) {
		return FailRegs
	}

	// Figure of merit: fractions of remaining capacity consumed.
	xferUsed := 0
	for _, i := range sc.xfer.touched {
		if d := sc.xfer.d[i]; d > 0 {
			xferUsed += d
		}
	}
	p.merit = append(p.merit, fraction(int64(xferUsed), int64(st.freeXfer())))
	memUsed := sc.memUsed
	clear(memUsed)
	for _, i := range sc.mem.touched {
		if d := sc.mem.d[i]; d > 0 {
			memUsed[i/ii] += int64(d)
		}
	}
	for cl := 0; cl < m.Clusters; cl++ {
		p.merit = append(p.merit, fraction(memUsed[cl], int64(st.freeMem(cl))))
	}
	for cl := 0; cl < m.Clusters; cl++ {
		p.merit = append(p.merit, fraction(addUnits[cl], st.freeLifetime(cl)))
	}
	return FailNone
}

// fraction returns used/free, saturating at 1 when free is exhausted.
func fraction(used, free int64) float64 {
	if used <= 0 {
		return 0
	}
	if free <= 0 {
		return 1
	}
	f := float64(used) / float64(free)
	if f > 1 {
		return 1
	}
	return f
}

// checkRegs verifies that applying p keeps every cluster's MaxLive within
// the register file, and accumulates the net added lifetime units per
// cluster into addUnits. It never mutates st outside its scratch.
func (st *state) checkRegs(p *plan, def int, addUnits []int64) bool {
	m := st.m
	sc := &st.sc
	// Hypothetical value views for every touched producer, v's own new
	// value first.
	sc.viewed.clear()
	view := func(id int) *regView {
		vw := &sc.views[id]
		if sc.viewed.add(id) {
			vw.copyOf(st.vals[id])
		}
		return vw
	}
	if st.g.Nodes[p.v].Op.ProducesValue() {
		sc.viewed.add(p.v)
		sc.views[p.v].fresh(p.cluster, def)
	}
	for _, mv := range p.moves {
		view(mv.val).setXfer(mv.dest, mv.new)
	}
	for _, cp := range p.comms {
		view(cp.val).setXfer(cp.dest, cp.start)
	}
	for _, lp := range p.loads {
		view(lp.val).tmp.mem.loads[lp.cluster] = lp.cycle
	}
	for _, up := range p.uses {
		tmp := &view(up.val).tmp
		if cur := tmp.minUse[up.cluster]; cur == noUse || up.use < cur {
			tmp.minUse[up.cluster] = up.use
		}
		if cur := tmp.maxUse[up.cluster]; cur == noUse || up.use > cur {
			tmp.maxUse[up.cluster] = up.use
		}
	}

	// Per-cluster simulation on a reusable scratch buffer: every view's
	// current spans are removed and its planned spans added.
	if cap(st.simBuf) < st.ii {
		st.simBuf = make([]int, st.ii)
	}
	var buf [2]regpress.Span
	for c := 0; c < m.Clusters; c++ {
		var before, after int64
		rem, add := sc.rem[:0], sc.add[:0]
		for _, id := range sc.viewed.list {
			vw := &sc.views[id]
			if vw.val != nil {
				for _, sp := range vw.val.spans(c, m, &buf) {
					rem = append(rem, sp)
					before += int64(sp.Len())
				}
			}
			for _, sp := range vw.tmp.spans(c, m, &buf) {
				add = append(add, sp)
				after += int64(sp.Len())
			}
		}
		sc.rem, sc.add = rem, add
		if len(rem) == 0 && len(add) == 0 {
			continue
		}
		if !st.press[c].FitsWith(rem, add, m.RegsIn(c), st.simBuf[:st.ii]) {
			return false
		}
		if d := after - before; d > 0 {
			addUnits[c] += d
		}
	}
	return true
}

// xferDepartOK reports whether a transfer of val may depart at cycle s: the
// value must already be written and register-resident — for spilled values,
// outside the dead window between the spill store and the reload
// completion.
func xferDepartOK(val *value, s int, m *machine.Config) bool {
	if s < val.def {
		return false
	}
	if val.spill != nil {
		if reload := val.spill.load + m.OpLatency(isa.Load); s > val.spill.store && s < reload {
			return false
		}
	}
	return true
}
