// Command perfbench is the repository's benchmark: one command that runs a
// workload of the GP scheduler — cold library compiles, a warm gpserved
// worker, or a gpcoordd fleet — for a fixed time, checks every output, and
// prints every metric by name and unit. The last line of its output is a
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// ledger (-trace 1). See README.md.
//
// Usage:
//
//	bash perfbench/run.sh --workload compile|serve|fleet --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement as the JSON line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type entry struct {
	name string
	metric
	note string
}

// ledger is an ordered list of measured metrics.
type ledger struct{ entries []entry }

func (l *ledger) add(name string, v float64, unit string) { l.addNote(name, v, unit, "") }

func (l *ledger) addNote(name string, v float64, unit, note string) {
	l.entries = append(l.entries, entry{name: name, metric: metric{Value: v, Unit: unit}, note: note})
}

func (l *ledger) merge(o *ledger) { l.entries = append(l.entries, o.entries...) }

func (l *ledger) get(name string) (metric, bool) {
	for _, e := range l.entries {
		if e.name == name {
			return e.metric, true
		}
	}
	return metric{}, false
}

// endToEnd and perLayer are the metric names the JSON line carries, in
// BENCHMARK.json's order. Every workload reports every one of them;
// metrics only one workload has (the server.* and cluster.* phase ledger)
// are printed, not put on the JSON line.
var endToEnd = []string{"loops_per_s", "p50_ms", "tail_ms", "ipc", "setup_s", "peak_rss_mb"}

var perLayer = []string{
	"core.attempts", "core.partitions", "core.list_fallbacks", "core.ii_over_mii",
	"ddg.mii_ms",
	"partition.ms", "partition.moves", "partition.screen_full_share",
	"partition.allocs_per_call", "partition.bytes_per_call",
	"schedule.ms", "schedule.fail_share",
	"schedule.try_allocs_per_call", "schedule.try_bytes_per_call",
	"schedule.list_ms", "schedule.verify_ms",
	"ddgio.read_us", "machine.parse_us", "cluster.key_us",
	"error_share", "trace.overhead_share",
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is what a workload hands back for printing.
type result struct {
	attempted, failed int
	detail            string // how the failures split, when there are kinds
	metrics           *ledger
}

var workloads = map[string]func(config) (*result, error){
	"compile": runCompileWorkload,
	"serve":   runServeWorkload,
	"fleet":   runFleetWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile, serve or fleet")
	seed := fs.Int64("seed", 0, "input seed; 0 is the committed corpora in canonical order")
	seconds := fs.Float64("seconds", 20, "measured seconds per window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload compile|serve|fleet, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	res.metrics.add("error_share", share(float64(res.failed), float64(res.attempted)), "fraction")
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	line, err := jsonLine(res, names)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d attempted=%d failed=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, res.attempted, res.failed, res.detail)
	for _, e := range res.metrics.entries {
		fmt.Fprintf(stdout, "  %-30s %14.6g %-9s %s\n", e.name, e.Value, e.Unit, e.note)
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// jsonLine renders the result line: exactly the named metrics.
func jsonLine(res *result, names []string) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := res.metrics.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(out)
}

// Set-up runs at least setupRepeats times and until setupSeconds have
// passed, so a set-up of milliseconds is still the median of many.
const (
	setupRepeats = 3
	setupSeconds = 1.0
)

// timedSetups runs setup repeatedly and returns the median duration and
// the last environment; the earlier ones are torn down. Reporting the
// median of several keeps setup_s steady enough to gate.
func timedSetups[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupRepeats || sum(secs) < setupSeconds; i++ {
		if i > 0 {
			teardown(env)
			runtime.GC() // the torn-down set-up's garbage must not inflate the next
		}
		t0 := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	sort.Float64s(secs)
	return env, median(secs), nil
}

// commonMetrics adds the end-to-end metrics every workload reports the
// same way.
func commonMetrics(l *ledger, setupS float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	l.add("setup_s", setupS, "s")
	l.add("peak_rss_mb", rss, "MiB")
	return nil
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".perfbench-out"

func tracePath(cfg config) string {
	return filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
