// Package schedule implements the paper's single-phase modulo scheduler:
// instruction scheduling, register allocation and on-the-fly spill code in
// one pass, following the URACAM framework (§3.3) that the GP scheme builds
// on.
//
// Nodes are visited in a Swing-Modulo-Scheduling order (§3.3.3). Each node
// is placed into a (cluster, cycle) slot; inter-cluster register
// dependences are routed over the shared bus (one broadcast transfer per
// value) or — via the §3.3.2 transformations — through memory as a
// store/load pair. Placements are compared with the multi-dimensional
// figure of merit of §3.3.1: the fraction of the *remaining* bus, memory
// and register-lifetime capacity a placement consumes, so that scarce
// resources weigh more than abundant ones.
package schedule

import (
	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regpress"
)

// noUse marks a cluster with no scheduled consumer of a value. It must be
// far below any legitimate use cycle: start cycles may be negative
// (bottom-up SMS placement), so -1 would collide.
const noUse = -1 << 40

// comm is the interconnect routing of one value. On a shared bus a single
// broadcast transfer departs the home cluster at start and arrives in every
// other cluster at start+LatBus. On point-to-point links each destination
// cluster has its own transfer on the home→dest link, recorded in dests;
// start is unused.
type comm struct {
	start int
	dests map[int]int // destination cluster → departure cycle (PointToPoint)
}

// startFor returns the departure cycle of the transfer serving cluster c,
// or ok=false when no transfer reaches c.
func (cm *comm) startFor(c int, p2p bool) (int, bool) {
	if !p2p {
		return cm.start, true
	}
	s, ok := cm.dests[c]
	return s, ok
}

// memRoute is a value routed through memory: one store in the home cluster
// and one load per destination cluster.
type memRoute struct {
	store int         // store issue cycle (home cluster memory port)
	loads map[int]int // destination cluster → load issue cycle
}

// spill is spill code for a register-pressure-bound value in its home
// cluster: the value is stored right after definition and reloaded before
// its first use, freeing the register in between (§3.3.2).
type spill struct {
	store, load int
}

// value tracks the register residency of one produced value.
type value struct {
	home int // producing cluster
	def  int // cycle the value is written (producer start + latency)

	// minUse/maxUse record, per cluster, the earliest and latest cycles at
	// which a scheduled consumer reads the value there (consumer start +
	// II·dist); noUse marks a cluster with no consumers. Indexed by cluster.
	minUse, maxUse []int

	comm  *comm     // bus transfer, if the value crosses clusters by bus
	mem   *memRoute // memory route, if transformed
	spill *spill    // spill code in the home cluster, if transformed
}

func newValue(home, def, clusters int) *value {
	v := &value{home: home, def: def, minUse: make([]int, clusters), maxUse: make([]int, clusters)}
	for c := 0; c < clusters; c++ {
		v.minUse[c], v.maxUse[c] = noUse, noUse
	}
	return v
}

// newValueOf returns node v's value, produced in cluster home and written
// at def, with no uses yet. It lives in st.valBuf, reset in place.
func (st *state) newValueOf(v, home, def int) *value {
	val := &st.valBuf[v]
	*val = value{home: home, def: def, minUse: val.minUse, maxUse: val.maxUse}
	for c := range val.minUse {
		val.minUse[c], val.maxUse[c] = noUse, noUse
	}
	return val
}

// arrival returns the cycle the value becomes readable in cluster c, or
// (0, false) when it is not routed there.
func (v *value) arrival(c int, m *machine.Config) (int, bool) {
	if c == v.home {
		if v.spill != nil {
			// Readable before the spill store and after the reload; the
			// conservative single figure is the reload completion for uses
			// after the gap. Callers needing the gap use spans().
			return v.def, true
		}
		return v.def, true
	}
	if v.mem != nil {
		if l, ok := v.mem.loads[c]; ok {
			return l + m.OpLatency(isa.Load), true
		}
		return 0, false
	}
	if v.comm != nil {
		if s, ok := v.comm.startFor(c, m.Topology == machine.PointToPoint); ok {
			return s + m.LatBus, true
		}
	}
	return 0, false
}

// spans returns the register intervals the value occupies in cluster c
// under its current routing and uses. The result is written into buf and
// valid until buf's next use.
func (v *value) spans(c int, m *machine.Config, buf *[2]regpress.Span) []regpress.Span {
	if c == v.home {
		end := v.def + 1 // the write itself occupies the register
		if u := v.maxUse[c]; u != noUse && u+1 > end {
			end = u + 1
		}
		// The register must survive until an outgoing transfer or store.
		if v.comm != nil {
			if v.comm.dests == nil {
				if v.comm.start+1 > end {
					end = v.comm.start + 1
				}
			} else {
				for _, s := range v.comm.dests {
					if s+1 > end {
						end = s + 1
					}
				}
			}
		}
		if v.mem != nil && v.mem.store+1 > end {
			end = v.mem.store + 1
		}
		if v.spill == nil {
			buf[0] = regpress.Span{Start: v.def, End: end}
			return buf[:1]
		}
		// Spilled: live [def, store+1) and [load+lat, end).
		buf[0] = regpress.Span{Start: v.def, End: v.spill.store + 1}
		buf[1] = regpress.Span{Start: v.spill.load + m.OpLatency(isa.Load), End: end}
		if buf[1].End <= buf[1].Start {
			return buf[:1]
		}
		return buf[:2]
	}
	// Remote cluster: live from arrival to last use there.
	arr, ok := v.arrival(c, m)
	if !ok {
		return nil
	}
	end := v.maxUse[c]
	if end == noUse {
		return nil
	}
	buf[0] = regpress.Span{Start: arr, End: end + 1}
	return buf[:1]
}

// state is the mutable scheduling state for one II attempt.
type state struct {
	g  *ddg.Graph
	m  *machine.Config
	ii int

	time    []int  // node → start cycle (may be negative; see sched)
	cluster []int  // node → cluster
	sched   []bool // node → placed?
	rt      *mrt.Table
	press   []*regpress.Pressure // per cluster
	vals    []*value             // per node; nil until the producer schedules
	valBuf  []value              // per node: the storage vals points into

	nMemOps [2]int // [stores, loads] added by transformations (statistics)
	simBuf  []int  // scratch for plan-time register simulation
	sc      scratch
}

func newState(g *ddg.Graph, m *machine.Config, ii int) *state {
	st := &state{}
	st.reset(g, m, ii)
	return st
}

// reset readies st for an attempt of g on m at ii, as newState would
// build it, keeping the capacity of every buffer it already has.
func (st *state) reset(g *ddg.Graph, m *machine.Config, ii int) {
	n, k := g.N(), m.Clusters
	if st.rt == nil || st.m != m {
		st.rt = mrt.New(m, ii)
	} else {
		st.rt.Reset(ii)
	}
	st.g, st.m, st.ii = g, m, ii
	st.time = resizeInts(st.time, n)
	st.cluster = resizeInts(st.cluster, n)
	for i := range st.time {
		st.time[i], st.cluster[i] = -1, -1
	}
	st.sched = resizeBools(st.sched, n)
	clear(st.sched)
	if len(st.press) != k {
		st.press = make([]*regpress.Pressure, k)
	}
	for c, p := range st.press {
		if p == nil {
			st.press[c] = regpress.New(ii)
		} else {
			p.Reset(ii)
		}
	}
	if cap(st.vals) >= n {
		st.vals = st.vals[:n]
		clear(st.vals)
	} else {
		st.vals = make([]*value, n)
	}
	// newValueOf resets a valBuf entry when its node is placed.
	if len(st.valBuf) != n || n > 0 && len(st.valBuf[0].minUse) != k {
		st.valBuf = make([]value, n)
		uses := make([]int, 2*n*k)
		for i := range st.valBuf {
			val := &st.valBuf[i]
			val.minUse, uses = uses[:k:k], uses[k:]
			val.maxUse, uses = uses[:k:k], uses[k:]
		}
	}
	st.nMemOps = [2]int{}
	st.sc.reset(n, k, m.Channels(), ii)
}

// addSpans registers the spans of value v in cluster c with the pressure
// tracker.
func (st *state) addValueSpans(v *value, c int) {
	var buf [2]regpress.Span
	for _, sp := range v.spans(c, st.m, &buf) {
		st.press[c].Add(sp.Start, sp.End)
	}
}

// removeValueSpans removes the current spans of value v in cluster c.
func (st *state) removeValueSpans(v *value, c int) {
	var buf [2]regpress.Span
	for _, sp := range v.spans(c, st.m, &buf) {
		st.press[c].Remove(sp.Start, sp.End)
	}
}

// withSpanUpdate runs mutate on v while keeping the pressure trackers
// consistent: spans in every cluster are removed, the mutation applied, and
// the new spans added.
func (st *state) withSpanUpdate(v *value, mutate func()) {
	for c := 0; c < st.m.Clusters; c++ {
		st.removeValueSpans(v, c)
	}
	mutate()
	for c := 0; c < st.m.Clusters; c++ {
		st.addValueSpans(v, c)
	}
}

// maxLive returns the current MaxLive of cluster c.
func (st *state) maxLive(c int) int { return st.press[c].MaxLive() }

// regsOK reports whether every cluster currently fits its register file.
func (st *state) regsOK() bool {
	for c := 0; c < st.m.Clusters; c++ {
		if st.maxLive(c) > st.m.RegsIn(c) {
			return false
		}
	}
	return true
}

// p2p reports whether the interconnect is point-to-point (per-destination
// transfers) rather than the shared broadcast bus.
func (st *state) p2p() bool { return st.m.Topology == machine.PointToPoint }

// freeXfer and friends report remaining capacity, used by the figure of
// merit (fraction of *free* resources a candidate consumes).
func (st *state) freeXfer() int { return st.rt.FreeXferSlots() }

func (st *state) freeMem(c int) int { return st.rt.FreeOpSlots(c, isa.MemUnit) }

func (st *state) freeLifetime(c int) int64 {
	return st.press[c].Free(st.m.RegsIn(c))
}
