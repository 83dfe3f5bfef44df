package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParsePhaseTimingCoordinator(t *testing.T) {
	got, err := parsePhaseTiming("admission;dur=0.15, place;dur=0.01, proxy;dur=0.22")
	if err != nil {
		t.Fatal(err)
	}
	want := []phase{{"admission", 0.15}, {"place", 0.01}, {"proxy", 0.22}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParsePhaseTimingWorkerMiss(t *testing.T) {
	v := "cache-lookup;dur=0.00, machine-parse;dur=0.02, queue-wait;dur=0.00, admission;dur=0.00, " +
		"mii;dur=0.01, partition;dur=0.88, schedule;dur=0.28, verify;dur=0.01, encode;dur=0.03"
	got, err := parsePhaseTiming(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || got[5] != (phase{"partition", 0.88}) {
		t.Fatalf("got %v", got)
	}
	if s := phaseTotal(got); s < 1.229 || s > 1.231 {
		t.Fatalf("total %v, want 1.23", s)
	}
}

// A failover records one place and one proxy phase per attempt.
func TestParsePhaseTimingRepeatedPhases(t *testing.T) {
	got, err := parsePhaseTiming("admission;dur=0.20, place;dur=0.01, proxy;dur=1.50, place;dur=0.02, proxy;dur=0.30")
	if err != nil {
		t.Fatal(err)
	}
	if p := phaseSum(got, "proxy"); p < 1.799 || p > 1.801 {
		t.Fatalf("proxy sum %v, want 1.80", p)
	}
	if p := phaseSum(got, "place"); p < 0.029 || p > 0.031 {
		t.Fatalf("place sum %v, want 0.03", p)
	}
}

func TestParsePhaseTimingEmptyAndMalformed(t *testing.T) {
	if got, err := parsePhaseTiming(""); err != nil || got != nil {
		t.Fatalf("empty header: %v, %v", got, err)
	}
	for _, bad := range []string{"proxy", "proxy;dur=x", ";dur=1", "a;dur=1,,b;dur=2"} {
		if _, err := parsePhaseTiming(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

// The strings the daemons emit come from obs.Trace.ServerTiming.
func TestParsePhaseTimingRoundTripsServerTiming(t *testing.T) {
	tr := obs.AcquireTrace("id", "proxy-schedule")
	defer obs.ReleaseTrace(tr)
	tr.Phase("admission", 150*time.Microsecond)
	tr.PhaseNote("place", "node=w0", 10*time.Microsecond)
	tr.Phase("proxy", 2200*time.Microsecond)
	got, err := parsePhaseTiming(tr.ServerTiming())
	if err != nil {
		t.Fatal(err)
	}
	want := []phase{{"admission", 0.15}, {"place", 0.01}, {"proxy", 2.2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ServerTiming %q parsed as %v, want %v", tr.ServerTiming(), got, want)
	}
}

// Both daemons, live: a worker's miss and hit, and the coordinator's
// proxy phases.
func TestParsePhaseTimingLiveDaemons(t *testing.T) {
	in, err := newInputs(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := in.dsp[0].body
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	f, err := startFleet(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	var buf bytes.Buffer
	for i, want := range []string{"miss", "hit"} {
		rep, err := post(hc, f.workers[0].url, body, "", &buf)
		if err != nil || rep.status != 200 || rep.xcache != want {
			t.Fatalf("worker request %d: %+v %v", i, rep, err)
		}
		ps, err := parsePhaseTiming(rep.phases)
		if err != nil || len(ps) == 0 {
			t.Fatalf("worker X-Phase-Timing %q: %v", rep.phases, err)
		}
		if want == "miss" && phaseSum(ps, "partition") == 0 && phaseSum(ps, "schedule") == 0 {
			t.Errorf("miss phases %q carry no compute", rep.phases)
		}
	}
	rep, err := post(hc, f.url, body, "", &buf)
	if err != nil || rep.status != 200 || rep.xcache != "hit" {
		t.Fatalf("coordinator request: %+v %v", rep, err)
	}
	ps, err := parsePhaseTiming(rep.phases)
	if err != nil {
		t.Fatalf("coordinator X-Phase-Timing %q: %v", rep.phases, err)
	}
	var names []string
	for _, p := range ps {
		names = append(names, p.name)
	}
	if !reflect.DeepEqual(names, []string{"admission", "place", "proxy"}) {
		t.Fatalf("coordinator phases %v", names)
	}
}
