// Command benchdiff is CI's benchmark-regression gate: it compares a
// freshly generated BENCH_partition.json perf snapshot against the
// committed baseline and fails (exit 1) when
//
//   - any benchmark's ns/op regresses by more than -max-regress (default
//     30%), or
//   - allocs/op increases for any steady-state evaluator (benchmarks whose
//     name contains "evaluate" — their allocation-free contract is exact,
//     not statistical) or for any arena-backed hot path (names starting
//     with "partition_", "portfolio_" or "schedule_batch_" — their pooled
//     scratch makes allocs/op deterministic, so growth is a leak), or
//   - a baseline benchmark is missing from the fresh snapshot.
//
// Faster-than-baseline results and new benchmarks never fail the gate.
//
// With -server-current it instead gates a BENCH_server.json throughput
// snapshot: the cache-warm batch speedup (batch loops/sec over verbatim
// singleton loops/sec) must stay at or above -min-batch-speedup (default
// 5.0), and the run must have completed without errors. Absolute req/s is
// machine-dependent and never gated.
//
// Override knob for intentional changes: run with -accept (or set
// BENCHDIFF_ACCEPT=1 in the environment; CI does this when the commit
// message contains "[bench-skip]"), which prints the comparison but always
// exits 0. Then commit the fresh snapshot as the new baseline.
//
// Usage:
//
//	benchdiff -baseline BENCH_partition.json -current fresh.json [-max-regress 0.30] [-accept]
//	benchdiff -server-current BENCH_server.json [-min-batch-speedup 5.0] [-accept]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_partition.json", "committed baseline snapshot")
	currentPath := fs.String("current", "", "freshly generated snapshot to gate")
	maxRegress := fs.Float64("max-regress", 0.30, "maximum tolerated ns/op regression (0.30 = +30%)")
	serverCurrent := fs.String("server-current", "", "gate a BENCH_server.json throughput snapshot instead of a perf snapshot")
	minBatchSpeedup := fs.Float64("min-batch-speedup", 5.0, "minimum cache-warm batch-over-singleton loops/sec ratio (server mode)")
	accept := fs.Bool("accept", false, "report but never fail (override for intentional changes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if os.Getenv("BENCHDIFF_ACCEPT") == "1" {
		*accept = true
	}
	if *serverCurrent != "" {
		return runServerGate(*serverCurrent, *minBatchSpeedup, *accept, stdout, stderr)
	}
	if *currentPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -current is required")
		return 2
	}

	baseline, err := readSnapshot(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	current, err := readSnapshot(*currentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	violations := compare(baseline, current, *maxRegress, stdout)
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "benchdiff: PASS")
		return 0
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "benchdiff: FAIL: %s\n", v)
	}
	if *accept {
		fmt.Fprintln(stdout, "benchdiff: ACCEPTED despite failures (override active); commit the fresh snapshot as the new baseline")
		return 0
	}
	fmt.Fprintln(stderr, `benchdiff: intentional change? re-run with -accept (CI: put "[bench-skip]" in the commit message) and commit the fresh snapshot as the new baseline`)
	return 1
}

func readSnapshot(path string) (*bench.PerfSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap bench.PerfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: snapshot has no benchmarks", path)
	}
	return &snap, nil
}

// steadyStateEvaluator reports whether the benchmark is one of the
// steady-state evaluators whose allocation-free contract is gated exactly.
func steadyStateEvaluator(name string) bool {
	return strings.Contains(strings.ToLower(name), "evaluate")
}

// allocGated reports whether the benchmark's allocs/op must never grow:
// the steady-state evaluators (exact zero contract) and the arena-backed
// hot paths, whose warmed pooled scratch makes allocation counts
// deterministic — any increase is a retained-buffer regression, not noise.
func allocGated(name string) bool {
	if steadyStateEvaluator(name) {
		return true
	}
	lower := strings.ToLower(name)
	for _, prefix := range []string{"partition_", "portfolio_", "schedule_batch_", "schedule_try_"} {
		if strings.HasPrefix(lower, prefix) {
			return true
		}
	}
	return false
}

// runServerGate gates a gpserved throughput snapshot (BENCH_server.json):
// the cache-warm batch speedup is a hardware-independent ratio, so unlike
// req/s it can be gated on any CI machine.
func runServerGate(path string, minSpeedup float64, accept bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	var snap bench.ServerPerfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", path, err)
		return 2
	}
	fmt.Fprintf(stdout, "server snapshot %s:\n", path)
	fmt.Fprintf(stdout, "  %-24s %10.0f req/s (%.0f%% cache hits, p99 %.0fµs) [info only]\n",
		"sustained mix", snap.RequestsPerSec, snap.CacheHitRate*100, snap.P99Micros)
	fmt.Fprintf(stdout, "  %-24s %10.0f loops/s\n", "warm singleton", snap.SingletonWarmPerSec)
	fmt.Fprintf(stdout, "  %-24s %10.0f loops/s (%d loops per pass)\n", "warm batch", snap.BatchLoopsPerSec, snap.BatchLoops)
	fmt.Fprintf(stdout, "  %-24s %10.2fx (floor %.2fx)\n", "batch speedup", snap.BatchSpeedup, minSpeedup)

	var violations []string
	if snap.Errors > 0 {
		violations = append(violations, fmt.Sprintf("measurement saw %d errored requests", snap.Errors))
	}
	if snap.BatchLoops == 0 {
		violations = append(violations, "snapshot has no warm batch measurement (stale gpserved -bench-json?)")
	} else if snap.BatchSpeedup < minSpeedup {
		violations = append(violations, fmt.Sprintf("batch speedup %.2fx is below the %.2fx floor", snap.BatchSpeedup, minSpeedup))
	}
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "benchdiff: PASS")
		return 0
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "benchdiff: FAIL: %s\n", v)
	}
	if accept {
		fmt.Fprintln(stdout, "benchdiff: ACCEPTED despite failures (override active)")
		return 0
	}
	return 1
}

// compare prints a comparison table and returns the gate violations.
func compare(baseline, current *bench.PerfSnapshot, maxRegress float64, w io.Writer) []string {
	cur := make(map[string]bench.PerfBenchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}

	var violations []string
	fmt.Fprintf(w, "%-28s %14s %14s %9s %12s\n", "benchmark", "base ns/op", "cur ns/op", "delta", "allocs b→c")
	for _, base := range baseline.Benchmarks {
		c, ok := cur[base.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from current snapshot", base.Name))
			continue
		}
		delta := 0.0
		if base.NsPerOp > 0 {
			delta = float64(c.NsPerOp-base.NsPerOp) / float64(base.NsPerOp)
		}
		fmt.Fprintf(w, "%-28s %14d %14d %8.1f%% %6d→%d\n",
			base.Name, base.NsPerOp, c.NsPerOp, delta*100, base.AllocsPerOp, c.AllocsPerOp)
		if delta > maxRegress {
			violations = append(violations, fmt.Sprintf("%s: ns/op regressed %.1f%% (%d → %d, limit %.0f%%)",
				base.Name, delta*100, base.NsPerOp, c.NsPerOp, maxRegress*100))
		}
		if allocGated(base.Name) && c.AllocsPerOp > base.AllocsPerOp {
			violations = append(violations, fmt.Sprintf("%s: allocs/op increased %d → %d (steady-state and arena-backed paths must not allocate more)",
				base.Name, base.AllocsPerOp, c.AllocsPerOp))
		}
	}
	if baseline.SchedulesPerSec > 0 && current.SchedulesPerSec > 0 {
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %8.1f%%\n", "schedules/sec (info only)",
			baseline.SchedulesPerSec, current.SchedulesPerSec,
			(current.SchedulesPerSec/baseline.SchedulesPerSec-1)*100)
	}
	return violations
}
