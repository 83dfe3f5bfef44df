package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"strings"
)

// runCompileWorkload is the paper's evaluation as a library user runs it:
// every SPECfp95 loop scheduled cold with GP on both paper machines.
func runCompileWorkload(cfg config) (*result, error) {
	in, setupS, err := timedSetups(func() (*inputs, error) { return newInputs(cfg.seed, 0) }, func(*inputs) {})
	if err != nil {
		return nil, err
	}
	run := runCompile(in, cfg.seconds, nil)
	res := &result{attempted: run.loops, failed: run.failed, metrics: &ledger{}}
	l := res.metrics
	loops := run.pooled()
	p90, err := percentile(loops, 0.90)
	if err != nil {
		return nil, err
	}
	rate := run.rate()
	n := fmt.Sprintf("per loop, n=%d: %d loops × %d passes", len(loops), len(run.times), run.passes)
	l.addNote("loops_per_s", rate, "loops/s", fmt.Sprintf("each of %d loops at its median of %d passes", len(run.times), run.passes))
	l.addNote("p50_ms", median(loops), "ms", n)
	l.addNote("tail_ms", p90, "ms", "p90_ms "+n)
	l.add("ipc", run.ipc, "ops/cycle")
	if err := commonMetrics(l, setupS); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	rec := newRecorder()
	traced := runCompile(in, cfg.seconds, rec)
	res.attempted += traced.loops
	res.failed += traced.failed
	lib, err := libraryLedger(in, rec)
	if err != nil {
		return nil, err
	}
	l.merge(lib)
	l.addNote("trace.overhead_share", 1-traced.rate()/rate, "fraction", "loops_per_s lost to span recording")
	return res, rec.write(tracePath(cfg))
}

// httpEnv is a set-up HTTP workload: its inputs, the URL the clients
// drive, the pre-warm bodies and how to stop the daemons.
type httpEnv struct {
	in   *inputs
	url  string
	refs [][]byte
	stop func()
}

// seqLen sizes the request sequence for every window a run measures.
func seqLen(cfg config) int {
	windows := 1
	if cfg.trace {
		windows = 2
	}
	return int(float64(windows)*cfg.seconds*seqPerSecond) + freshEvery
}

// runServeWorkload drives one gpserved worker over loopback HTTP.
func runServeWorkload(cfg config) (*result, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	env, setupS, err := timedSetups(func() (*httpEnv, error) {
		in, err := newInputs(cfg.seed, seqLen(cfg))
		if err != nil {
			return nil, err
		}
		w, err := startWorker("serve-0", clients)
		if err != nil {
			return nil, err
		}
		refs, err := prewarm(hc, w.url, in)
		if err != nil {
			w.stop()
			return nil, err
		}
		return &httpEnv{in: in, url: w.url, refs: refs, stop: w.stop}, nil
	}, func(e *httpEnv) { e.stop() })
	if err != nil {
		return nil, err
	}
	return measureHTTP(cfg, hc, env, setupS, httpHooks{layers: serverLedger})
}

// runFleetWorkload drives a gpcoordd coordinator in front of two
// single-slot workers. A separate single-node worker is the oracle every
// fleet body must equal byte for byte.
func runFleetWorkload(cfg config) (*result, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	single, err := startWorker("single-node", clients)
	if err != nil {
		return nil, err
	}
	defer single.stop()
	refIn, err := newInputs(cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	singleRefs, err := prewarm(hc, single.url, refIn)
	if err != nil {
		return nil, err
	}
	env, setupS, err := timedSetups(func() (*httpEnv, error) {
		in, err := newInputs(cfg.seed, seqLen(cfg))
		if err != nil {
			return nil, err
		}
		f, err := startFleet(2, 1)
		if err != nil {
			return nil, err
		}
		refs, err := prewarm(hc, f.url, in)
		if err != nil {
			f.stop()
			return nil, err
		}
		return &httpEnv{in: in, url: f.url, refs: refs, stop: f.stop}, nil
	}, func(e *httpEnv) { e.stop() })
	if err != nil {
		return nil, err
	}
	// Distributed output must equal single-node output: first for the
	// pre-warm bodies, then for every fresh loop.
	prewarmBad := 0
	for i := range env.refs {
		if !bytes.Equal(env.refs[i], singleRefs[i]) {
			prewarmBad++
		}
	}
	sameAsSingle := func(w *window) (int, error) {
		var buf bytes.Buffer
		bad := 0
		for _, fr := range w.fresh {
			rep, err := post(hc, single.url, fr.f.body, "", &buf)
			if err != nil {
				return 0, fmt.Errorf("single-node replay of %s: %v", fr.f.name, err)
			}
			if rep.status != http.StatusOK || sha256.Sum256(buf.Bytes()) != fr.digest {
				bad++
			}
		}
		return bad, nil
	}
	counters := func() (map[string]float64, error) { return scrape(hc, env.url, coordCounters...) }
	res, err := measureHTTP(cfg, hc, env, setupS, httpHooks{extraCheck: sameAsSingle, counters: counters, layers: clusterLedger})
	if err != nil {
		return nil, err
	}
	res.attempted += len(env.refs)
	res.failed += prewarmBad
	return res, nil
}

// httpHooks are what serve and fleet measure differently.
type httpHooks struct {
	// extraCheck, when set, runs one more check over a window's fresh
	// replies and returns how many failed it.
	extraCheck func(*window) (int, error)
	// counters, when set, reads daemon counters before and after the
	// traced window.
	counters func() (map[string]float64, error)
	// layers derives the daemon's ledger from the traced window.
	layers func(w *window, before, after map[string]float64) *ledger
}

// measureHTTP runs the measured window (and, traced, a second window with
// spans), checks every reply, and reports the metrics.
func measureHTTP(cfg config, hc *http.Client, env *httpEnv, setupS float64, hooks httpHooks) (*result, error) {
	stopped := false
	stop := func() {
		if !stopped {
			env.stop()
			hc.CloseIdleConnections()
			stopped = true
		}
	}
	defer stop()
	ipc, err := ipcOfBodies(env.in, env.refs)
	if err != nil {
		return nil, err
	}
	lib := libraryRefs{}
	check := func(w *window) error {
		bad, err := checkFresh(w, lib)
		if err != nil {
			return err
		}
		if hooks.extraCheck != nil {
			more, err := hooks.extraCheck(w)
			if err != nil {
				return err
			}
			bad += more
		}
		for i := 0; i < bad; i++ {
			w.mismatch()
		}
		return nil
	}

	runtime.GC() // start every run from the same heap
	win, err := drive(hc, env.url, env.in, env.refs, 0, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	if err := check(win); err != nil {
		return nil, err
	}
	res := &result{attempted: win.attempted, failed: win.errors(), metrics: &ledger{},
		detail: fmt.Sprintf("(refused %d, errors %d, wrong bodies %d)", win.refused, win.failed, win.mismatched)}
	l := res.metrics
	lat := sortedCopy(win.lat)
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, err
	}
	rate := win.rate()
	l.addNote("loops_per_s", rate, "loops/s", fmt.Sprintf("median second; %d requests served in %.2fs", win.served, win.elapsed))
	l.addNote("p50_ms", median(lat), "ms", fmt.Sprintf("per request, n=%d", len(lat)))
	l.addNote("tail_ms", p99, "ms", fmt.Sprintf("p99_ms per request, n=%d", len(lat)))
	l.add("ipc", ipc, "ops/cycle")
	if err := commonMetrics(l, setupS); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	rec := newRecorder()
	var before, after map[string]float64
	if hooks.counters != nil {
		if before, err = hooks.counters(); err != nil {
			return nil, err
		}
	}
	traced, err := drive(hc, env.url, env.in, env.refs, win.next, cfg.seconds, rec)
	if err != nil {
		return nil, err
	}
	if hooks.counters != nil {
		if after, err = hooks.counters(); err != nil {
			return nil, err
		}
	}
	if err := check(traced); err != nil {
		return nil, err
	}
	res.attempted += traced.attempted
	res.failed += traced.errors()
	res.detail += fmt.Sprintf(" (traced: refused %d, errors %d, wrong bodies %d)", traced.refused, traced.failed, traced.mismatched)
	l.merge(hooks.layers(traced, before, after))
	l.addNote("trace.overhead_share", 1-traced.rate()/rate, "fraction", "loops_per_s lost to span recording")

	// The library ledger counts allocations, so nothing else may run.
	stop()
	libLedger, err := libraryLedger(env.in, rec)
	if err != nil {
		return nil, err
	}
	l.merge(libLedger)
	return res, rec.write(tracePath(cfg))
}

// coordCounters are the coordinator counters the fleet ledger reads.
var coordCounters = []string{"gpcoordd_placements_total", "gpcoordd_spills_total", "gpcoordd_failovers_total"}

// serverLedger is the worker's phase ledger from X-Cache and
// X-Phase-Timing, split into hits and misses.
func serverLedger(w *window, _, _ map[string]float64) *ledger {
	l := &ledger{}
	var hitLat, lookup, transport, missLat []float64
	missPhases := []string{"queue-wait", "admission", "partition", "schedule", "verify", "encode"}
	perPhase := make([][]float64, len(missPhases))
	for _, s := range w.samples {
		if s.hit {
			hitLat = append(hitLat, s.ms)
			lookup = append(lookup, phaseSum(s.phases, "cache-lookup"))
			transport = append(transport, s.ms-phaseTotal(s.phases))
			continue
		}
		missLat = append(missLat, s.ms)
		for i, name := range missPhases {
			perPhase[i] = append(perPhase[i], phaseSum(s.phases, name))
		}
	}
	nHit, nMiss := fmt.Sprintf("hits, n=%d", len(hitLat)), fmt.Sprintf("p50 on misses, n=%d", len(missLat))
	l.addNote("server.hit_share", share(float64(len(hitLat)), float64(len(w.samples))), "fraction", fmt.Sprintf("of %d served", len(w.samples)))
	l.addNote("server.hit_p50_ms", median(sortedCopy(hitLat)), "ms", nHit)
	l.addNote("server.cache_lookup_ms", median(sortedCopy(lookup)), "ms", nHit)
	l.addNote("server.transport_ms", median(sortedCopy(transport)), "ms", "latency minus worker phases, "+nHit)
	l.addNote("server.miss_p50_ms", median(sortedCopy(missLat)), "ms", nMiss)
	for i, name := range missPhases {
		l.addNote("server."+strings.ReplaceAll(name, "-", "_")+"_ms", median(sortedCopy(perPhase[i])), "ms", nMiss)
	}
	l.addNote("server.rejected_share", share(float64(w.refused), float64(w.attempted)), "fraction", "")
	return l
}

// clusterLedger is the coordinator's ledger from its X-Phase-Timing, the
// relayed X-Cache and its placement counters.
func clusterLedger(w *window, before, after map[string]float64) *ledger {
	l := &ledger{}
	var adm, place, proxy, self []float64
	hits := 0
	for _, s := range w.samples {
		adm = append(adm, phaseSum(s.phases, "admission"))
		place = append(place, phaseSum(s.phases, "place"))
		p := phaseSum(s.phases, "proxy")
		proxy = append(proxy, p)
		self = append(self, s.ms-p)
		if s.hit {
			hits++
		}
	}
	n := fmt.Sprintf("p50, n=%d", len(w.samples))
	l.addNote("cluster.admission_ms", median(sortedCopy(adm)), "ms", n)
	l.addNote("cluster.place_ms", median(sortedCopy(place)), "ms", n)
	l.addNote("cluster.proxy_ms", median(sortedCopy(proxy)), "ms", n)
	l.addNote("cluster.self_ms", median(sortedCopy(self)), "ms", "latency minus proxy, "+n)
	l.addNote("cluster.hit_share", share(float64(hits), float64(len(w.samples))), "fraction", "relayed X-Cache")
	delta := func(name string) float64 { return after[name] - before[name] }
	placements := delta("gpcoordd_placements_total")
	l.addNote("cluster.spill_share", share(delta("gpcoordd_spills_total"), placements), "fraction", fmt.Sprintf("of %.0f placements", placements))
	l.addNote("cluster.failover_share", share(delta("gpcoordd_failovers_total"), placements), "fraction", "")
	return l
}
