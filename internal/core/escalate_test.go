package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/workload"
)

// escalationMachines are the two paper machines plus a point-to-point, a
// pipelined-bus and a 4-register-per-cluster machine (the paper machines
// have a non-pipelined bus).
func escalationMachines() []*machine.Config {
	p2p := machine.MustClustered(2, 32, 1, 1)
	p2p.Topology = machine.PointToPoint
	p2p.Name = "2-cluster/32reg/p2p/lat1"
	pipe := machine.MustClustered(4, 64, 1, 2)
	pipe.Pipelined = true
	pipe.Name = "4-cluster/64reg/1pbus/lat2"
	return []*machine.Config{
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 64, 1, 2),
		p2p,
		pipe,
		machine.MustClustered(4, 16, 1, 1),
	}
}

// deterministic returns a copy of r without the fields that measure how
// the search ran rather than what it found: the busy times, the wall time
// and the speculative attempts.
func deterministic(r *Result) Result {
	c := *r
	c.MIIDur, c.PartitionDur, c.ScheduleDur, c.Elapsed = 0, 0, 0, 0
	c.Discarded = 0
	return c
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestEscalationParallelEqualsSequential pins that helper cores change
// nothing but the timings: every loop of both corpora, on every machine,
// under every scheme, gives the same Result with one core (the sequential
// walk: no helper can start) and with four. IIWindow 4 makes many loops
// fall back to list scheduling, whose partition is the one the walk
// computes after its last failure; the default window lets the fpppp
// loops speculate across all 65 IIs.
func TestEscalationParallelEqualsSequential(t *testing.T) {
	var loops []*ddg.Graph
	for _, bm := range append(workload.SPECfp95(), workload.DSP()...) {
		for i, l := range bm.Loops {
			// -short keeps each benchmark's first loop, and fpppp/loop1,
			// which speculates furthest before it schedules.
			if testing.Short() && i > 0 && !(bm.Name == "fpppp" && i == 1) {
				continue
			}
			loops = append(loops, l.G)
		}
	}
	fallbacks, discarded := 0, 0
	for mi, m := range escalationMachines() {
		// The default window runs on the paper machines, IIWindow 4 on
		// all; -short keeps only the latter.
		windows := []int{4}
		if mi < 2 && !testing.Short() {
			windows = []int{0, 4}
		}
		for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
			for _, w := range windows {
				opts := &Options{Algorithm: alg, IIWindow: w}
				for _, g := range loops {
					var seq, par *Result
					var err error
					withProcs(1, func() { seq, err = ScheduleLoop(g, m, opts) })
					if err != nil {
						t.Fatalf("%s/%v/%s: %v", m.Name, alg, g.Name, err)
					}
					withProcs(4, func() { par, err = ScheduleLoop(g, m, opts) })
					if err != nil {
						t.Fatalf("%s/%v/%s: %v", m.Name, alg, g.Name, err)
					}
					if seq.Discarded != 0 {
						t.Errorf("%s/%v/%s: one core discarded %d attempts", m.Name, alg, g.Name, seq.Discarded)
					}
					if par.ListFallback && par.Discarded != 0 {
						t.Errorf("%s/%v/%s: list fallback discarded %d attempts", m.Name, alg, g.Name, par.Discarded)
					}
					if a, b := deterministic(seq), deterministic(par); !reflect.DeepEqual(a, b) {
						t.Errorf("%s/%v/%s window %d: four cores differ from one:\n  one:  %+v\n  four: %+v",
							m.Name, alg, g.Name, w, a, b)
					}
					if seq.ListFallback {
						fallbacks++
					}
					discarded += par.Discarded
				}
			}
		}
	}
	// The corpus must exercise both list fallback and speculation.
	if fallbacks == 0 {
		t.Error("no case fell back to list scheduling")
	}
	t.Logf("%d list fallbacks, %d discarded attempts on four cores", fallbacks, discarded)
}

// fppppLoops returns the fpppp loops, the corpus's largest. On the
// 4-cluster machine loop0 tries all 65 IIs and is the slowest cold loop,
// with partitions and attempts of milliseconds each.
func fppppLoops(t *testing.T) []*ddg.Graph {
	t.Helper()
	var gs []*ddg.Graph
	for _, bm := range workload.SPECfp95() {
		if bm.Name == "fpppp" {
			for _, l := range bm.Loops {
				gs = append(gs, l.G)
			}
		}
	}
	if len(gs) < 2 {
		t.Fatal("fpppp benchmark missing")
	}
	return gs
}

// TestScheduleLoopDeadlineInterruptsWork pins that a deadline interrupts
// a partition or attempt in progress rather than waiting for the next II:
// the full search takes hundreds of milliseconds, and a 5 ms deadline must
// end it within 30 ms with an error wrapping context.DeadlineExceeded.
func TestScheduleLoopDeadlineInterruptsWork(t *testing.T) {
	g := fppppLoops(t)[0]
	m := machine.MustClustered(4, 64, 1, 2)
	bound := 30 * time.Millisecond
	if raceEnabled {
		bound *= 10 // the race detector slows every step between polls
	}
	withProcs(4, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		t0 := time.Now()
		_, err := ScheduleLoopContext(ctx, g, m, nil)
		took := time.Since(t0)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ScheduleLoopContext under a 5 ms deadline = %v, want context.DeadlineExceeded", err)
		}
		if took > bound {
			t.Errorf("ScheduleLoopContext returned %v after a 5 ms deadline, want ≤ %v", took, bound)
		}
	})
}

// TestEscalationLeavesNoGoroutine pins that ScheduleLoopContext returns
// only after its helpers have exited — after a success, a list fallback
// and a cancellation — since the caller reuses opts.Arena afterwards.
func TestEscalationLeavesNoGoroutine(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 2)
	fpppp := fppppLoops(t)
	canceled, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		ctx  context.Context
		g    *ddg.Graph
		opts *Options
		want func(*Result, error) bool
	}{
		// fpppp/loop1 schedules 31 IIs above its MII.
		{"success", context.Background(), fpppp[1], nil,
			func(r *Result, err error) bool { return err == nil && !r.ListFallback }},
		// fpppp/loop0 fails at every II.
		{"fallback", context.Background(), fpppp[0], &Options{IIWindow: 6},
			func(r *Result, err error) bool { return err == nil && r.ListFallback }},
		{"cancel", canceled, fpppp[0], nil,
			func(r *Result, err error) bool { return errors.Is(err, context.Canceled) }},
	}
	withProcs(4, func() {
		for _, c := range cases {
			base := runtime.NumGoroutine()
			if c.name == "cancel" {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			res, err := ScheduleLoopContext(c.ctx, c.g, m, c.opts)
			if !c.want(res, err) {
				t.Fatalf("%s: unexpected outcome: %+v, %v", c.name, res, err)
			}
			if n := escalating.Load(); n != 0 {
				t.Errorf("%s: %d escalation goroutines still running after return", c.name, n)
			}
			// A timer callback (the AfterFunc above) runs on a goroutine
			// of its own, so give the count a moment to settle.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s: %d goroutines after return, %d before", c.name, n, base)
			}
		}
	})
}

// TestEscalationConcurrentCallers runs several escalations at once over
// shared loops and machines, as a server's pool or the harness's
// loop-parallel runner does: each caller gets the sequential result, and
// the process-wide helper count returns to zero.
func TestEscalationConcurrentCallers(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 2)
	var loops []*ddg.Graph
	for _, bm := range workload.SPECfp95() {
		if bm.Name != "fpppp" { // too slow under the race detector
			loops = append(loops, bm.Loops[0].G)
		}
	}
	want := make([]Result, len(loops))
	withProcs(1, func() {
		for i, g := range loops {
			res, err := ScheduleLoop(g, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = deterministic(res)
		}
	})
	withProcs(4, func() {
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			for i, g := range loops {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := ScheduleLoop(g, m, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if got := deterministic(res); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: concurrent caller got %+v, want %+v", g.Name, got, want[i])
					}
				}()
			}
		}
		wg.Wait()
	})
	if n := escalating.Load(); n != 0 {
		t.Errorf("%d escalation goroutines running after every caller returned", n)
	}
}
