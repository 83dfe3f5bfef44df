package schedule

import (
	"sort"

	"repro/internal/isa"
)

// transform applies one §3.3.2 transformation aimed at relieving the most
// saturated resource (the failure reason of the blocked node breaks ties in
// its favor). It reports whether any transformation was applied:
//
//   - register pressure → insert spill code (store after def, reload before
//     first use) in the most pressured cluster;
//   - bus pressure → reroute a communicated value through memory
//     (store in the source cluster, loads in the destinations);
//   - memory pressure → reroute a memory-routed value back over the bus, or
//     remove spill code.
func (st *state) transform(reason FailReason) bool {
	targets := st.sc.targets[:0]
	// Register saturation per cluster.
	for c := 0; c < st.m.Clusters; c++ {
		sat := float64(st.maxLive(c)) / float64(st.m.RegsIn(c))
		if reason == FailRegs {
			sat += 1 // prioritize the failing resource class
		}
		targets = append(targets, target{kind: spillTarget, c: c, sat: sat})
	}
	// Interconnect saturation.
	{
		sat := st.rt.XferUtilization()
		if reason == FailBus {
			sat += 1
		}
		targets = append(targets, target{kind: busToMemTarget, sat: sat})
	}
	// Memory saturation per cluster.
	for c := 0; c < st.m.Clusters; c++ {
		sat := st.rt.MemUtilization(c)
		if reason == FailMem {
			sat += 1
		}
		targets = append(targets, target{kind: memTarget, c: c, sat: sat})
	}
	st.sc.targets = targets

	// Most saturated first; a stable insertion sort keeps equal
	// saturations in the order above.
	for i := 1; i < len(targets); i++ {
		for j := i; j > 0 && targets[j].sat > targets[j-1].sat; j-- {
			targets[j], targets[j-1] = targets[j-1], targets[j]
		}
	}
	for _, tg := range targets {
		if st.tryTarget(tg) {
			return true
		}
	}
	return false
}

// targetKind names a §3.3.2 transformation transform may try.
type targetKind int8

const (
	spillTarget    targetKind = iota // trySpill(c)
	busToMemTarget                   // tryBusToMem()
	memTarget                        // tryMemToBus(c), then tryUnspill(c)
)

// target is one transformation candidate with the saturation of the
// resource it relieves.
type target struct {
	kind targetKind
	c    int
	sat  float64
}

// tryTarget applies the transformation tg names.
func (st *state) tryTarget(tg target) bool {
	switch tg.kind {
	case spillTarget:
		return st.trySpill(tg.c)
	case busToMemTarget:
		return st.tryBusToMem()
	default:
		return st.tryMemToBus(tg.c) || st.tryUnspill(tg.c)
	}
}

// trySpill inserts spill code for the value in cluster c whose
// definition-to-first-use gap is largest: the register is freed between the
// store and the reload (§3.3.2: "register pressure can be reduced by
// inserting spill code", at the cost of memory ports).
func (st *state) trySpill(c int) bool {
	m := st.m
	latS, latL := m.OpLatency(isa.Store), m.OpLatency(isa.Load)
	// Candidates: unspilled values home in c with a local use and a gap
	// wide enough that freeing [store+1, load+latLoad) pays for the two
	// memory operations.
	type cand struct {
		id  int
		gap int
	}
	var cands []cand
	for id, val := range st.vals {
		if val == nil || val.home != c || val.spill != nil || val.mem != nil {
			continue
		}
		first := val.minUse[c]
		if first == noUse {
			continue
		}
		gap := first - val.def
		if gap >= latS+latL+2 {
			cands = append(cands, cand{id, gap})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gap != cands[j].gap {
			return cands[i].gap > cands[j].gap
		}
		return cands[i].id < cands[j].id
	})
	for _, cd := range cands {
		val := st.vals[cd.id]
		first := val.minUse[c]
		// Earliest free store slot after def; latest free load slot that
		// still feeds the first use.
		store, ok := st.findMemSlot(c, val.def, first-latL-latS, +1)
		if !ok {
			continue
		}
		// Existing transfers must depart while the value is still
		// register-resident, i.e. before the spill store frees the register.
		if val.comm != nil {
			late := false
			if val.comm.dests == nil {
				late = val.comm.start > store
			} else {
				for _, s := range val.comm.dests {
					if s > store {
						late = true
					}
				}
			}
			if late {
				continue
			}
		}
		// Reserve the store before searching the load so both cannot claim
		// the last unit of a shared modulo slot.
		st.rt.PlaceOp(c, isa.MemUnit, store)
		load, ok := st.findMemSlot(c, first-latL, store+latS, -1)
		if !ok || load < store+latS || load+latL-store <= latS+latL {
			st.rt.RemoveOp(c, isa.MemUnit, store)
			continue
		}
		st.rt.PlaceOp(c, isa.MemUnit, load)
		st.withSpanUpdate(val, func() {
			val.spill = &spill{store: store, load: load}
		})
		st.nMemOps[0]++
		st.nMemOps[1]++
		return true
	}
	return false
}

// tryUnspill removes spill code in cluster c (freeing its memory ports)
// when the register file can absorb the restored lifetime.
func (st *state) tryUnspill(c int) bool {
	for id, val := range st.vals {
		_ = id
		if val == nil || val.home != c || val.spill == nil {
			continue
		}
		sp := val.spill
		st.withSpanUpdate(val, func() { val.spill = nil })
		if st.maxLive(c) > st.m.RegsIn(c) {
			st.withSpanUpdate(val, func() { val.spill = sp })
			continue
		}
		st.rt.RemoveOp(c, isa.MemUnit, sp.store)
		st.rt.RemoveOp(c, isa.MemUnit, sp.load)
		st.nMemOps[0]--
		st.nMemOps[1]--
		return true
	}
	return false
}

// tryBusToMem reroutes one bus-communicated value through memory, freeing
// LatBus bus slots at the cost of a store and one load per destination
// cluster.
func (st *state) tryBusToMem() bool {
	m := st.m
	latS, latL := m.OpLatency(isa.Store), m.OpLatency(isa.Load)
	for id, val := range st.vals {
		_ = id
		if val == nil || val.comm == nil || val.spill != nil {
			continue
		}
		// Destination clusters and their earliest deadlines.
		dests := make(map[int]int)
		feasible := true
		for c, first := range val.minUse {
			if c == val.home || first == noUse {
				continue
			}
			dests[c] = first
			if first-latL < val.def+latS {
				feasible = false
			}
		}
		if len(dests) == 0 || !feasible {
			continue
		}
		// Store as early as possible, loads as late as their deadline allows.
		minFirst := 1 << 30
		for _, f := range dests {
			if f < minFirst {
				minFirst = f
			}
		}
		store, ok := st.findMemSlot(val.home, val.def, minFirst-latL-latS, +1)
		if !ok {
			continue
		}
		loads := make(map[int]int, len(dests))
		ok = true
		for c, first := range dests {
			l, found := st.findMemSlot(c, first-latL, store+latS, -1)
			if !found || l < store+latS {
				ok = false
				break
			}
			loads[c] = l
		}
		if !ok {
			continue
		}
		// Apply, then verify register pressure (arrival times change);
		// revert on overflow.
		oldComm := val.comm
		st.rt.PlaceOp(val.home, isa.MemUnit, store)
		for c, l := range loads {
			st.rt.PlaceOp(c, isa.MemUnit, l)
		}
		st.withSpanUpdate(val, func() {
			val.comm = nil
			val.mem = &memRoute{store: store, loads: loads}
		})
		if !st.regsOK() {
			st.withSpanUpdate(val, func() {
				val.mem = nil
				val.comm = oldComm
			})
			st.rt.RemoveOp(val.home, isa.MemUnit, store)
			for c, l := range loads {
				st.rt.RemoveOp(c, isa.MemUnit, l)
			}
			continue
		}
		st.removeXfersOf(val.home, oldComm)
		st.nMemOps[0]++
		st.nMemOps[1] += len(loads)
		return true
	}
	return false
}

// tryMemToBus reroutes a memory-routed value that touches cluster c back
// over the bus, freeing memory ports (§3.3.2: "memory pressure can be
// reduced … by inserting copy operations that use the interconnection
// network").
func (st *state) tryMemToBus(c int) bool {
	for id, val := range st.vals {
		_ = id
		if val == nil || val.mem == nil {
			continue
		}
		if _, touches := val.mem.loads[c]; !touches && val.home != c {
			continue
		}
		// The single transfer must meet every destination's deadline.
		minFirst := 1 << 30
		for cc, f := range val.minUse {
			if cc == val.home || f == noUse {
				continue
			}
			if f < minFirst {
				minFirst = f
			}
		}
		if minFirst == 1<<30 {
			continue
		}
		newComm, ok := st.placeXfersFor(val, minFirst)
		if !ok {
			continue
		}
		oldMem := val.mem
		st.withSpanUpdate(val, func() {
			val.mem = nil
			val.comm = newComm
		})
		if !st.regsOK() {
			st.withSpanUpdate(val, func() {
				val.comm = nil
				val.mem = oldMem
			})
			st.removeXfersOf(val.home, newComm)
			continue
		}
		st.rt.RemoveOp(val.home, isa.MemUnit, oldMem.store)
		for cc, l := range oldMem.loads {
			st.rt.RemoveOp(cc, isa.MemUnit, l)
		}
		st.nMemOps[0]--
		st.nMemOps[1] -= len(oldMem.loads)
		return true
	}
	return false
}

// findMemSlot scans for a free memory-port cycle in cluster c from `from`
// toward `to` in the given direction (+1/-1), inclusive, bounded to one II
// window of distinct slots.
func (st *state) findMemSlot(c, from, to, dir int) (int, bool) {
	n := 0
	for t := from; n < st.ii; t += dir {
		if dir > 0 && t > to || dir < 0 && t < to {
			break
		}
		if st.rt.CanPlaceOp(c, isa.MemUnit, t) {
			return t, true
		}
		n++
	}
	return 0, false
}

// placeXfersFor reserves the interconnect transfers that route val to every
// cluster where it has scheduled uses: one shared-bus broadcast meeting the
// tightest deadline (minFirst), or one point-to-point transfer per
// destination meeting that destination's own deadline. On failure nothing
// stays reserved.
func (st *state) placeXfersFor(val *value, minFirst int) (*comm, bool) {
	m := st.m
	if st.p2p() {
		dests := map[int]int{}
		for c, first := range val.minUse {
			if c == val.home || first == noUse {
				continue
			}
			start := -1
			for s := val.def; s+m.LatBus <= first && s < val.def+st.ii; s++ {
				if st.rt.CanPlaceXfer(val.home, c, s) {
					start = s
					break
				}
			}
			if start < 0 {
				for cc, ss := range dests {
					st.rt.RemoveXfer(val.home, cc, ss)
				}
				return nil, false
			}
			st.rt.PlaceXfer(val.home, c, start)
			dests[c] = start
		}
		if len(dests) == 0 {
			return nil, false
		}
		return &comm{dests: dests}, true
	}
	for s := val.def; s+m.LatBus <= minFirst && s < val.def+st.ii; s++ {
		if st.rt.CanPlaceXfer(val.home, -1, s) {
			st.rt.PlaceXfer(val.home, -1, s)
			return &comm{start: s}, true
		}
	}
	return nil, false
}

// removeXfersOf releases every interconnect reservation of cm (nil-safe).
func (st *state) removeXfersOf(home int, cm *comm) {
	if cm == nil {
		return
	}
	if cm.dests == nil {
		st.rt.RemoveXfer(home, -1, cm.start)
		return
	}
	for c, s := range cm.dests {
		st.rt.RemoveXfer(home, c, s)
	}
}
