package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/machine"
)

func TestTable1Output(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-table1"}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"Table 1", "unified/64reg", "2-cluster/64reg/1bus/lat1", "4-cluster/64reg/1bus/lat1"} {
		if !strings.Contains(text, want) {
			t.Errorf("-table1 output missing %q:\n%s", want, text)
		}
	}
}

// TestSweepCSVDeterministicAcrossWorkers is the harness's headline
// contract: the -sweep CSV over the default machine set (paper Table-1
// configuration, heterogeneous mix, pipelined-bus and point-to-point
// variants) × both corpora is byte-identical for sequential and parallel
// runs, with every schedule passing the Verify oracle.
func TestSweepCSVDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	csv1 := filepath.Join(dir, "p1.csv")
	csvN := filepath.Join(dir, "pN.csv")
	for par, path := range map[string]string{"1": csv1, "4": csvN} {
		var out, errb bytes.Buffer
		code := run([]string{"-sweep", "-short", "-parallel", par, "-csv", path}, &out, &errb)
		if code != 0 {
			t.Fatalf("-sweep -parallel %s exited %d: %s", par, code, errb.String())
		}
	}
	b1, err := os.ReadFile(csv1)
	if err != nil {
		t.Fatal(err)
	}
	bN, err := os.ReadFile(csvN)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, bN) {
		t.Fatalf("sweep CSV differs between -parallel=1 and -parallel=4:\n%s\nvs\n%s", b1, bN)
	}
	text := string(b1)
	if !strings.HasPrefix(text, "corpus,config,program,unified,URACAM,Fixed,GP\n") {
		t.Errorf("sweep CSV header wrong:\n%s", text[:80])
	}
	for _, m := range machine.SweepSet() {
		for _, corpus := range []string{"SPECfp95", "DSP"} {
			if !strings.Contains(text, corpus+","+m.Name+",") {
				t.Errorf("sweep CSV missing cell %s × %s", m.Name, corpus)
			}
		}
	}
	if strings.Contains(text, "SKIPPED") {
		t.Errorf("default sweep set must be feasible for both corpora:\n%s", text)
	}
}

func TestMachineFlagRunsCustomPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus panel on a custom machine")
	}
	dir := t.TempDir()
	het := machine.MustHetero("hetpanel", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 1, 2}, Regs: 24},
		{Units: [isa.NumUnitKinds]int{1, 3, 2}, Regs: 40},
	}, machine.SharedBus, 1, 1, false)
	path := filepath.Join(dir, "het.machine")
	if err := os.WriteFile(path, []byte(machine.Format(het)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-machine", path}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Machine hetpanel") {
		t.Errorf("custom machine panel missing:\n%s", out.String())
	}
}

// TestBenchJSONSnapshot exercises the -bench-json perf-snapshot mode end to
// end: the file must parse, carry the partitioner micro-benchmarks and the
// TrySchedule entry, and report zero steady-state allocations for the
// evaluator (the allocation-free contract of the incremental refactor).
func TestBenchJSONSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark measurements (several seconds)")
	}
	path := filepath.Join(t.TempDir(), "BENCH_partition.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-bench-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap bench.PerfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v\n%s", err, data)
	}
	want := map[string]bool{
		"partition_medium_2cluster": false,
		"partition_large_4cluster":  false,
		"schedule_try_medium":       false,
		"evaluate_steady_state":     false,
	}
	for _, b := range snap.Benchmarks {
		if _, ok := want[b.Name]; ok {
			want[b.Name] = true
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op %d not positive", b.Name, b.NsPerOp)
		}
		if b.Name == "evaluate_steady_state" && b.AllocsPerOp != 0 {
			t.Errorf("evaluate_steady_state allocates %d/op, want 0", b.AllocsPerOp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("snapshot missing benchmark %q", name)
		}
	}
	if snap.SchedulesPerSec <= 0 || snap.LoopsScheduled <= 0 {
		t.Errorf("throughput not measured: %+v", snap)
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-machine", "/does/not/exist"}, 1},
		{[]string{"-machine", " , "}, 1},
		{[]string{"-bench-json", "/does/not/exist/bench.json"}, 1},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.code, errb.String())
		}
	}
}
