// The §3.1 II escalation, with idle cores attempting later IIs of the same
// loop while the current one runs.
//
// The sequential walk tries II = MII, MII+1, ... up to the window and stops
// at the first success. The partition it uses at each II is a chain: P(MII)
// first, then, after a failure at ii, GP repartitions at ii+1 exactly when
// the current partition's IIBus exceeds ii+1; otherwise the partition
// carries over. The chain depends only on the partitions' bus bounds,
// never on a schedule outcome, so the partition for any II can be built
// before the attempts below it have finished. Attempts and partitions are
// pure functions of their inputs (the partition.Arena and
// schedule.Workspace rules), so which goroutine runs one does not matter.
//
// Hence the overlapped escalation below returns exactly the sequential
// result:
//   - workers claim IIs in increasing order from one counter, so every II
//     below any claimed one is claimed too;
//   - the chain is extended in II order under one lock, by whichever
//     worker first needs a link, with the one Partitioner (and arena) the
//     sequential walk would use;
//   - the lowest successful II wins, and every attempt or chain partition
//     above it is canceled through its context, while those below it run
//     to their (failing) end.
//
// The caller's goroutine is the first worker; with it alone the walk is
// the sequential one, operation for operation. After each failed attempt
// a worker may start one helper, but only while the process-wide count of
// escalation goroutines (callers plus helpers) is below GOMAXPROCS: a
// loop-parallel harness or a busy server already fills the cores, and a
// loop that schedules at the MII never starts one.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// escalating counts the goroutines running an escalation in this process:
// each ScheduleLoopContext caller plus every helper it started.
var escalating atomic.Int32

// link is the partition the walk uses at one II of the chain.
type link struct {
	part     *partition.Result
	computed bool          // recomputed at this II, not carried over
	dur      time.Duration // busy time of the computation
}

// attempt is the record of one claimed II, written only by the worker that
// claimed it and read once every worker has exited.
type attempt struct {
	started bool
	failed  bool
	s       *schedule.Schedule // the schedule, on success
	dur     time.Duration
}

// op is a running attempt or chain partition, canceled when a success at a
// lower II makes it useless.
type op struct {
	ii     int
	cancel context.CancelFunc
}

// escalation is one loop's II search, shared by its workers.
type escalation struct {
	ctx       context.Context
	opts      *Options
	mode      schedule.Mode
	loop      *schedule.Loop
	mii, last int // the II window

	next atomic.Int64 // the lowest unclaimed II
	win  atomic.Int64 // the lowest successful II, last+1 while none; written under mu

	chainMu sync.Mutex
	pt      *partition.Partitioner // nil for URACAM
	chain   []link                 // chain[i] serves II mii+i

	mu  sync.Mutex
	ops []*op

	att []attempt // att[i] is II mii+i
	wg  sync.WaitGroup
}

// escalate runs the II search for res.MII and completes res.
func escalate(ctx context.Context, g *ddg.Graph, m *machine.Config, opts *Options, res *Result) error {
	// Workers share g read-only; building its lazy adjacency first makes
	// that safe.
	g.Freeze()
	e := &escalation{
		ctx:  ctx,
		opts: opts,
		mode: schedule.ModeURACAM,
		loop: schedule.NewLoop(g, m),
		mii:  res.MII,
		last: res.MII + opts.window(),
	}
	e.next.Store(int64(e.mii))
	e.win.Store(int64(e.last + 1))
	e.att = make([]attempt, e.last-e.mii+1)
	if opts.Algorithm != URACAM {
		e.pt = partition.NewWithArena(g, m, opts.Partition, opts.Arena)
		e.chain = make([]link, 0, len(e.att)+1)
		e.mode = schedule.ModeGP
		if opts.Algorithm == FixedPartition {
			e.mode = schedule.ModeFixed
		}
	}

	escalating.Add(1)
	func() {
		defer escalating.Add(-1)
		defer e.wg.Wait()
		e.work()
	}()

	for i := range e.att {
		a := &e.att[i]
		if a.failed {
			continue
		}
		if a.s == nil {
			return e.stopped(g, e.mii+i)
		}
		res.Schedule = a.s
		e.finish(res, i)
		return nil
	}
	// Modulo scheduling inappropriate for this loop: list-schedule it with
	// the partition the walk holds after its last failure.
	assign, ok := e.assignAt(e.last + 1)
	if !ok {
		return e.stopped(g, e.last+1)
	}
	res.ListFallback = true
	res.Schedule = schedule.ListSchedule(g, m, assign)
	e.finish(res, len(e.att))
	return nil
}

// stopped is the error of a search that ctx ended before it could decide
// II ii: only ctx cancels work at or below the lowest success.
func (e *escalation) stopped(g *ddg.Graph, ii int) error {
	return fmt.Errorf("core: %s at II=%d: %w", g.Name, ii, e.ctx.Err())
}

// finish fills res with what the sequential walk would report on ending
// at chain index end: the attempts and partitions up to it, their busy
// times and work counters, and its partition.
func (e *escalation) finish(res *Result, end int) {
	res.Attempts = min(end+1, len(e.att))
	for i := range e.att {
		if i < res.Attempts {
			res.ScheduleDur += e.att[i].dur
		} else if e.att[i].started {
			res.Discarded++
		}
	}
	if e.pt == nil {
		return
	}
	for _, l := range e.chain[:end+1] {
		if l.computed {
			res.Partitions++
			res.PartitionDur += l.dur
			res.addPartStats(l.part)
		}
	}
	res.Assign = e.chain[end].part.Assign
	res.IIBus = e.chain[end].part.IIBus
}

// work is one worker's loop: claim the next II, attempt it with the
// chain's partition, and stop at a success, at a cancellation, or when no
// II below the best success is left.
func (e *escalation) work() {
	var ws schedule.Workspace
	for {
		ii := int(e.next.Add(1) - 1)
		if ii > e.last || int64(ii) > e.win.Load() {
			return
		}
		assign, ok := e.assignAt(ii)
		if !ok {
			return
		}
		ctx, o := e.begin(ii)
		if o == nil {
			return
		}
		a := &e.att[ii-e.mii]
		a.started = true
		t0 := time.Now()
		sopts := &schedule.Options{Mode: e.mode, Assign: assign, MeritThreshold: e.opts.MeritThreshold}
		s, fail, err := e.loop.TryContext(ctx, &ws, ii, sopts)
		a.dur = time.Since(t0)
		e.end(o)
		switch {
		case err != nil:
			return
		case fail == nil:
			a.s = s
			e.won(ii)
			return
		}
		a.failed = true
		e.help()
	}
}

// help starts one more worker when an II is left to claim and the process
// has a core no escalation goroutine is using.
func (e *escalation) help() {
	if n := e.next.Load(); n > int64(e.last) || n > e.win.Load() {
		return
	}
	for {
		c := escalating.Load()
		if c >= int32(runtime.GOMAXPROCS(0)) {
			return
		}
		if escalating.CompareAndSwap(c, c+1) {
			break
		}
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer escalating.Add(-1)
		e.work()
	}()
}

// assignAt returns the partition the walk uses at II ii (nil for URACAM),
// extending the chain up to it. It reports false when a computation it
// needed was canceled.
func (e *escalation) assignAt(ii int) ([]int, bool) {
	if e.pt == nil {
		return nil, true
	}
	e.chainMu.Lock()
	defer e.chainMu.Unlock()
	for len(e.chain) <= ii-e.mii {
		k := e.mii + len(e.chain)
		if n := len(e.chain); n > 0 {
			// §3.1: GP repartitions at the raised II only when the bus
			// bound exceeds it; Fixed never does.
			prev := e.chain[n-1].part
			if e.opts.Algorithm != GP || prev.IIBus <= k {
				e.chain = append(e.chain, link{part: prev})
				continue
			}
		}
		ctx, o := e.begin(k)
		if o == nil {
			return nil, false
		}
		t0 := time.Now()
		part, err := e.pt.PartitionContext(ctx, k)
		dur := time.Since(t0)
		e.end(o)
		if err != nil {
			return nil, false
		}
		e.chain = append(e.chain, link{part: part, computed: true, dur: dur})
	}
	return e.chain[ii-e.mii].part.Assign, true
}

// begin registers work for II ii and returns its context, or a nil op
// when a success below ii already makes the work useless.
func (e *escalation) begin(ii int) (context.Context, *op) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int64(ii) > e.win.Load() {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(e.ctx)
	o := &op{ii: ii, cancel: cancel}
	e.ops = append(e.ops, o)
	return ctx, o
}

// end unregisters o and releases its context.
func (e *escalation) end(o *op) {
	e.mu.Lock()
	for i, x := range e.ops {
		if x == o {
			e.ops[i] = e.ops[len(e.ops)-1]
			e.ops = e.ops[:len(e.ops)-1]
			break
		}
	}
	e.mu.Unlock()
	o.cancel()
}

// won records a success at ii and cancels the work above it.
func (e *escalation) won(ii int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int64(ii) >= e.win.Load() {
		return
	}
	e.win.Store(int64(ii))
	for _, o := range e.ops {
		if o.ii > ii {
			o.cancel()
		}
	}
}
