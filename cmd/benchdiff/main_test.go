package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func writeSnapshot(t *testing.T, dir, name string, benchmarks []bench.PerfBenchmark) string {
	t.Helper()
	snap := bench.PerfSnapshot{GoVersion: "go-test", Benchmarks: benchmarks, LoopsScheduled: 81, SchedulesPerSec: 100}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baselineBenchmarks() []bench.PerfBenchmark {
	return []bench.PerfBenchmark{
		{Name: "partition_medium_2cluster", Iterations: 100, NsPerOp: 1000, AllocsPerOp: 50},
		{Name: "partition_large_4cluster", Iterations: 100, NsPerOp: 5000, AllocsPerOp: 200},
		{Name: "evaluate_steady_state", Iterations: 1000, NsPerOp: 2500, AllocsPerOp: 0},
		{Name: "journal_append", Iterations: 1000, NsPerOp: 800, AllocsPerOp: 10},
	}
}

func TestBenchdiffPass(t *testing.T) {
	dir := t.TempDir()
	base := writeSnapshot(t, dir, "base.json", baselineBenchmarks())
	cur := writeSnapshot(t, dir, "cur.json", []bench.PerfBenchmark{
		{Name: "partition_medium_2cluster", NsPerOp: 1250, AllocsPerOp: 50}, // +25% < 30%
		{Name: "partition_large_4cluster", NsPerOp: 4000, AllocsPerOp: 190}, // faster, fewer allocs
		{Name: "evaluate_steady_state", NsPerOp: 2400, AllocsPerOp: 0},      // allocation-free held
		{Name: "journal_append", NsPerOp: 700, AllocsPerOp: 12},             // not alloc-gated
		{Name: "brand_new_benchmark", NsPerOp: 123456, AllocsPerOp: 999},    // new entries never gate
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "PASS") {
		t.Fatalf("no PASS in output: %s", stdout.String())
	}
}

func TestBenchdiffNsPerOpRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSnapshot(t, dir, "base.json", baselineBenchmarks())
	cur := writeSnapshot(t, dir, "cur.json", []bench.PerfBenchmark{
		{Name: "partition_medium_2cluster", NsPerOp: 1400, AllocsPerOp: 50}, // +40% > 30%
		{Name: "partition_large_4cluster", NsPerOp: 5000, AllocsPerOp: 200},
		{Name: "evaluate_steady_state", NsPerOp: 2500, AllocsPerOp: 0},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "ns/op regressed") {
		t.Fatalf("missing regression message: %s", stderr.String())
	}

	// The documented override knobs report but do not fail.
	if code := run([]string{"-baseline", base, "-current", cur, "-accept"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-accept: exit %d, want 0", code)
	}
	t.Setenv("BENCHDIFF_ACCEPT", "1")
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("BENCHDIFF_ACCEPT=1: exit %d, want 0", code)
	}
}

func TestBenchdiffAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSnapshot(t, dir, "base.json", baselineBenchmarks())
	cur := writeSnapshot(t, dir, "cur.json", []bench.PerfBenchmark{
		{Name: "partition_medium_2cluster", NsPerOp: 1000, AllocsPerOp: 500}, // arena-backed: alloc growth gated
		{Name: "partition_large_4cluster", NsPerOp: 5000, AllocsPerOp: 200},
		{Name: "evaluate_steady_state", NsPerOp: 2500, AllocsPerOp: 1}, // contract broken
		{Name: "journal_append", NsPerOp: 800, AllocsPerOp: 15},        // not gated: allocs may drift
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "allocs/op increased 0 → 1") {
		t.Fatalf("missing alloc message: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "partition_medium_2cluster: allocs") {
		t.Fatalf("arena-backed alloc growth not gated: %s", stderr.String())
	}
	if strings.Contains(stderr.String(), "journal_append: allocs") {
		t.Fatalf("ungated benchmark's allocs wrongly gated: %s", stderr.String())
	}
}

// TestBenchdiffScheduleTryAllocGated pins the scheduler's candidate-loop
// gate: one more allocation per TrySchedule fails, fewer passes.
func TestBenchdiffScheduleTryAllocGated(t *testing.T) {
	dir := t.TempDir()
	base := writeSnapshot(t, dir, "base.json", []bench.PerfBenchmark{
		{Name: "schedule_try_medium", Iterations: 100, NsPerOp: 300000, AllocsPerOp: 150},
	})
	grown := writeSnapshot(t, dir, "grown.json", []bench.PerfBenchmark{
		{Name: "schedule_try_medium", NsPerOp: 300000, AllocsPerOp: 151},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-current", grown}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "schedule_try_medium: allocs/op increased 150 → 151") {
		t.Fatalf("TrySchedule alloc growth not gated: %s", stderr.String())
	}
	fewer := writeSnapshot(t, dir, "fewer.json", []bench.PerfBenchmark{
		{Name: "schedule_try_medium", NsPerOp: 290000, AllocsPerOp: 149},
	})
	stderr.Reset()
	if code := run([]string{"-baseline", base, "-current", fewer}, &stdout, &stderr); code != 0 {
		t.Fatalf("fewer allocs: exit %d, stderr: %s", code, stderr.String())
	}
}

func writeServerSnapshot(t *testing.T, dir, name string, snap bench.ServerPerfSnapshot) string {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchdiffServerGate(t *testing.T) {
	dir := t.TempDir()
	good := writeServerSnapshot(t, dir, "good.json", bench.ServerPerfSnapshot{
		Requests: 400, RequestsPerSec: 9000, BatchLoops: 56,
		SingletonWarmPerSec: 10000, BatchLoopsPerSec: 80000, BatchSpeedup: 8.0,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-server-current", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "PASS") {
		t.Fatalf("no PASS in output: %s", stdout.String())
	}

	slow := writeServerSnapshot(t, dir, "slow.json", bench.ServerPerfSnapshot{
		Requests: 400, RequestsPerSec: 9000, BatchLoops: 56,
		SingletonWarmPerSec: 10000, BatchLoopsPerSec: 30000, BatchSpeedup: 3.0,
	})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-server-current", slow}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "below the 5.00x floor") {
		t.Fatalf("missing speedup violation: %s", stderr.String())
	}
	// Floors are tunable and the accept override applies here too.
	if code := run([]string{"-server-current", slow, "-min-batch-speedup", "2.5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("relaxed floor: exit %d, want 0; stderr: %s", code, stderr.String())
	}
	if code := run([]string{"-server-current", slow, "-accept"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-accept: exit %d, want 0", code)
	}

	// A snapshot minted before the warm-batch phase existed must not pass
	// silently.
	stale := writeServerSnapshot(t, dir, "stale.json", bench.ServerPerfSnapshot{
		Requests: 400, RequestsPerSec: 9000,
	})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-server-current", stale}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale snapshot: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no warm batch measurement") {
		t.Fatalf("missing staleness violation: %s", stderr.String())
	}
}

func TestBenchdiffMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := writeSnapshot(t, dir, "base.json", baselineBenchmarks())
	cur := writeSnapshot(t, dir, "cur.json", []bench.PerfBenchmark{
		{Name: "partition_medium_2cluster", NsPerOp: 1000, AllocsPerOp: 50},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-current", cur}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "missing from current") {
		t.Fatalf("missing-benchmark violation absent: %s", stderr.String())
	}
}

func TestBenchdiffBadInvocation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("no -current: exit %d, want 2", code)
	}
	if code := run([]string{"-baseline", "/nonexistent.json", "-current", "/nonexistent2.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing files: exit %d, want 2", code)
	}
}
