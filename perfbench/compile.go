package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
)

// compileRun is what one measured compile window produced.
type compileRun struct {
	loops  int // loops scheduled, all passes
	failed int // ScheduleLoop errors and Verify rejections
	passes int
	// times holds each request's wall times, ScheduleLoop plus Verify,
	// one per pass.
	times [][]float64
	ipc   float64 // weighted IPC of the first pass's schedules
}

// rate is loops per second with each loop at its median time over the
// passes, which a burst of noise from outside the program moves less than
// a mean.
func (c *compileRun) rate() float64 {
	var total float64
	for _, ts := range c.times {
		total += median(sortedCopy(ts))
	}
	return float64(len(c.times)) / (total / 1e3)
}

// pooled returns every per-loop time of every pass, sorted.
func (c *compileRun) pooled() []float64 {
	var all []float64
	for _, ts := range c.times {
		all = append(all, ts...)
	}
	return sortedCopy(all)
}

// minPasses is the fewest passes a compile window makes, so every loop's
// time is a median of several.
const minPasses = 3

// runCompile schedules every SPECfp95 loop on both paper machines, cold
// and one at a time, in the seed's order, verifying each schedule, and
// repeats whole passes until the window has elapsed. Whole passes keep
// every run's work identical: a partial pass would hold a seed-dependent
// subset of the slow loops.
func runCompile(in *inputs, seconds float64, rec *recorder) *compileRun {
	out := &compileRun{times: make([][]float64, len(in.spec))}
	results := make([]*core.Result, len(in.spec))
	runtime.GC() // start every run from the same heap
	start := time.Now()
	for ; out.passes < minPasses || time.Since(start).Seconds() < seconds; out.passes++ {
		for _, i := range in.order {
			r := in.spec[i]
			t0 := time.Now()
			res, err := core.ScheduleLoop(r.g, r.m, nil)
			t1 := time.Now()
			if err == nil {
				err = schedule.Verify(r.g, r.m, res.Schedule)
			}
			t2 := time.Now()
			out.loops++
			out.times[i] = append(out.times[i], float64(t2.Sub(t0))/1e6)
			if rec != nil {
				id := rec.add(span{Name: "compile.loop", Req: r.id()}, t0, t2)
				rec.add(span{Name: "core.ScheduleLoop", Parent: id, Req: r.id()}, t0, t1)
				rec.add(span{Name: "schedule.Verify", Parent: id, Req: r.id()}, t1, t2)
			}
			if err != nil {
				out.failed++
				continue
			}
			if out.passes == 0 {
				results[i] = res
			}
		}
	}
	if out.failed == 0 {
		out.ipc = meanIPC(in, func(i int) int64 {
			return results[i].Schedule.Cycles(in.spec[i].g.Niter)
		})
	}
	return out
}

// id names a request in spans and errors.
func (r *request) id() string { return fmt.Sprintf("%s@%s", r.g.Name, r.m.Name) }

// meanIPC is bench.Report.MeanIPC's GP figure for each machine — weighted
// IPC per benchmark (Σ weight·ops·trips / Σ weight·cycles), averaged over
// benchmarks — averaged over the two paper machines. cycles gives the
// schedule length of spec request i at its trip count. Sums run in corpus
// order, as bench.Run's do.
func meanIPC(in *inputs, cycles func(i int) int64) float64 {
	type acc struct {
		bench    string
		ops, cyc float64
	}
	perMachine := make([][]acc, len(paperMachines()))
	for i, r := range in.spec {
		rows := perMachine[r.mi]
		if len(rows) == 0 || rows[len(rows)-1].bench != r.bench {
			rows = append(rows, acc{bench: r.bench})
		}
		a := &rows[len(rows)-1]
		a.ops += r.weight * float64(r.g.N()) * float64(r.g.Niter)
		a.cyc += r.weight * float64(cycles(i))
		perMachine[r.mi] = rows
	}
	var total float64
	for _, rows := range perMachine {
		var s float64
		for _, a := range rows {
			s += a.ops / a.cyc
		}
		total += s / float64(len(rows))
	}
	return total / float64(len(perMachine))
}
