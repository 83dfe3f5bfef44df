package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/server"
)

// libraryLedger measures the library layers — core, ddg, partition,
// schedule, ddgio, machine and the coordinator's key function — on the
// SPECfp95 requests every workload schedules cold (compile's pass, the
// pre-warm of serve and fleet). It calls only public functions and times
// them from outside. Counts and allocations repeat exactly for a seed; it
// must run with no other goroutine allocating, so the HTTP workloads call
// it after their daemons have stopped.
func libraryLedger(in *inputs, rec *recorder) (*ledger, error) {
	l := &ledger{}
	var attempts, failedAttempts, partitions, fallbacks, iiOver, moves int64
	var screenFull, screened int64
	var miiMS, partMS, schedMS, verifyMS, listMS float64
	var pAllocs, pBytes, tAllocs, tBytes []float64
	var readUS, parseUS, keyUS []float64

	for _, r := range in.spec {
		t0 := time.Now()
		res, err := core.ScheduleLoop(r.g, r.m, nil)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("ledger: %s: %v", r.id(), err)
		}
		if err := schedule.Verify(r.g, r.m, res.Schedule); err != nil {
			return nil, fmt.Errorf("ledger: %s: %v", r.id(), err)
		}
		t2 := time.Now()
		id := rec.add(span{Name: "core.ScheduleLoop", Req: r.id()}, t0, t1)
		rec.add(span{Name: "schedule.Verify", Parent: id, Req: r.id()}, t1, t2)
		verifyMS += float64(t2.Sub(t1)) / 1e6

		attempts += int64(res.Attempts)
		partitions += int64(res.Partitions)
		moves += res.RefineMoves
		screenFull += res.ScreenFull
		screened += res.ScreenLowerBound + res.ScreenExact + res.ScreenFull
		miiMS += float64(res.MIIDur) / 1e6
		partMS += float64(res.PartitionDur) / 1e6
		schedMS += float64(res.ScheduleDur) / 1e6
		if res.ListFallback {
			fallbacks++
			failedAttempts += int64(res.Attempts)
			t3 := time.Now()
			schedule.ListSchedule(r.g, r.m, res.Assign)
			t4 := time.Now()
			rec.add(span{Name: "schedule.ListSchedule", Req: r.id()}, t3, t4)
			listMS += float64(t4.Sub(t3)) / 1e6
		} else {
			failedAttempts += int64(res.Attempts - 1)
			iiOver += int64(res.Schedule.II - res.MII)
		}

		// Isolated calls, each bracketed by allocation counters.
		a, b, s0, s1 := fewestAllocs(func() { partition.New(r.g, r.m, nil).Partition(res.MII) })
		rec.add(span{Name: "partition.Partition", Req: r.id()}, s0, s1)
		pAllocs, pBytes = append(pAllocs, a), append(pBytes, b)
		if !res.ListFallback {
			var fail *schedule.Failure
			a, b, s0, s1 := fewestAllocs(func() {
				_, fail = schedule.TrySchedule(r.g, r.m, res.Schedule.II, &schedule.Options{Mode: schedule.ModeGP, Assign: res.Assign})
			})
			if fail != nil {
				return nil, fmt.Errorf("ledger: %s: TrySchedule at the final II %d failed in isolation: %v", r.id(), res.Schedule.II, fail)
			}
			rec.add(span{Name: "schedule.TrySchedule", Req: r.id()}, s0, s1)
			tAllocs, tBytes = append(tAllocs, a), append(tBytes, b)
		}

		mtext := machine.Format(r.m)
		t5 := time.Now()
		if _, err := ddgio.Read(strings.NewReader(r.text)); err != nil {
			return nil, fmt.Errorf("ledger: %s: %v", r.id(), err)
		}
		t6 := time.Now()
		if _, err := machine.Parse(strings.NewReader(mtext)); err != nil {
			return nil, fmt.Errorf("ledger: %s: %v", r.id(), err)
		}
		t7 := time.Now()
		if _, err := server.ScheduleCacheKey(r.body); err != nil {
			return nil, fmt.Errorf("ledger: %s: %v", r.id(), err)
		}
		t8 := time.Now()
		rec.add(span{Name: "ddgio.Read", Req: r.id()}, t5, t6)
		rec.add(span{Name: "machine.Parse", Req: r.id()}, t6, t7)
		rec.add(span{Name: "server.ScheduleCacheKey", Req: r.id()}, t7, t8)
		readUS = append(readUS, float64(t6.Sub(t5))/1e3)
		parseUS = append(parseUS, float64(t7.Sub(t6))/1e3)
		keyUS = append(keyUS, float64(t8.Sub(t7))/1e3)
	}

	l.add("core.attempts", float64(attempts), "count")
	l.add("core.partitions", float64(partitions), "count")
	l.add("core.list_fallbacks", float64(fallbacks), "count")
	l.add("core.ii_over_mii", float64(iiOver), "cycles")
	l.add("ddg.mii_ms", miiMS, "ms")
	l.add("partition.ms", partMS, "ms")
	l.add("partition.moves", float64(moves), "count")
	l.add("partition.screen_full_share", share(float64(screenFull), float64(screened)), "fraction")
	l.add("partition.allocs_per_call", sum(pAllocs)/float64(len(pAllocs)), "count")
	l.add("partition.bytes_per_call", sum(pBytes)/float64(len(pBytes)), "B")
	l.add("schedule.ms", schedMS, "ms")
	l.add("schedule.fail_share", share(float64(failedAttempts), float64(attempts)), "fraction")
	l.add("schedule.try_allocs_per_call", sum(tAllocs)/float64(len(tAllocs)), "count")
	l.add("schedule.try_bytes_per_call", sum(tBytes)/float64(len(tBytes)), "B")
	l.add("schedule.list_ms", listMS, "ms")
	l.add("schedule.verify_ms", verifyMS, "ms")
	l.add("ddgio.read_us", median(sortedCopy(readUS)), "us")
	l.add("machine.parse_us", median(sortedCopy(parseUS)), "us")
	l.add("cluster.key_us", median(sortedCopy(keyUS)), "us")
	return l, nil
}

// allocRepeats is how many times fewestAllocs calls its function. Go
// seeds every map's hash randomly, and the seed can cost a call one to
// five more allocations. Measured over 30 calls per corpus request, the
// fewest count came up in at least 37% of calls (fpppp/loop3's
// TrySchedule on the 4-cluster machine), so 32 calls miss it with odds
// below one in a million per request.
const allocRepeats = 32

// fewestAllocs calls f allocRepeats times and returns the fewest heap
// allocations and bytes one call made, and when the first call started
// and ended. The counts are exact only when no other goroutine allocates.
func fewestAllocs(f func()) (allocs, bytes float64, start, end time.Time) {
	var before, after runtime.MemStats
	for i := 0; i < allocRepeats; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		f()
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		a, b := float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
		if i == 0 {
			allocs, bytes, start, end = a, b, t0, t1
		}
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	return allocs, bytes, start, end
}
