package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, err := newInputs(7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.seq, b.seq) || !reflect.DeepEqual(a.order, b.order) || !reflect.DeepEqual(a.freshOrder, b.freshOrder) {
		t.Fatal("same seed gave different sequences")
	}
	for i := range a.spec {
		if !bytes.Equal(a.spec[i].body, b.spec[i].body) {
			t.Fatalf("request %d body differs between two generations", i)
		}
	}
	for k := 0; k < 3*len(a.dsp); k += 37 {
		fa, err := a.freshLoop(k)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := b.freshLoop(k)
		if !bytes.Equal(fa.body, fb.body) {
			t.Fatalf("fresh loop %d differs between two generations", k)
		}
	}

	c, err := newInputs(8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.seq, c.seq) || reflect.DeepEqual(a.order, c.order) {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
}

func TestSeedZeroIsCanonical(t *testing.T) {
	in, err := newInputs(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.spec) != 162 {
		t.Fatalf("%d SPECfp95 requests, want 81 loops on 2 machines", len(in.spec))
	}
	for i, j := range in.order {
		if i != j {
			t.Fatalf("seed 0 compile order is not canonical at %d", i)
		}
	}
	ops := 0
	for _, r := range in.spec[:81] {
		ops += r.g.N()
	}
	if ops != 2662 {
		t.Fatalf("SPECfp95 corpus has %d ops, want the committed 2662", ops)
	}
}

func TestFreshSlotsAndLoops(t *testing.T) {
	in, err := newInputs(3, 10*freshEvery)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for pos, idx := range in.seq {
		isSlot := (pos+1)%freshEvery == 0
		if (idx == freshSlot) != isSlot {
			t.Fatalf("position %d: slot %v, entry %d", pos, isSlot, idx)
		}
		if !isSlot && (idx < 0 || int(idx) >= len(in.spec)) {
			t.Fatalf("position %d: request %d out of range", pos, idx)
		}
	}
	// Fresh loops never repeat a body, including across template cycles.
	for k := 0; k < 2*len(in.dsp)+5; k++ {
		f, err := in.freshLoop(k)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(f.body)] {
			t.Fatalf("fresh loop %d repeats an earlier body", k)
		}
		seen[string(f.body)] = true
	}
}

// meanIPC must be the figure bench.Run reports as GP's MeanIPC.
func TestMeanIPCMatchesBenchReport(t *testing.T) {
	bms := workload.SPECfp95()[:2]
	for _, bm := range bms {
		bm.Loops = bm.Loops[:2]
	}
	spec, err := corpusRequests(bms)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{spec: spec, order: permutation(len(spec), 0, 0)}
	run := runCompile(in, 0, nil)
	if run.failed != 0 {
		t.Fatalf("compile pass: %d failed", run.failed)
	}
	var want float64
	for _, m := range paperMachines() {
		rep, err := bench.Run(bms, bench.Config{Machine: m, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		want += rep.MeanIPC[bench.SchemeGP] / 2
	}
	if d := run.ipc - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("ipc %v, bench.Report.MeanIPC[GP] averaged %v", run.ipc, want)
	}
}

// BENCHMARK.json must list exactly the metrics the JSON line carries.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w)
		}
	}
}
