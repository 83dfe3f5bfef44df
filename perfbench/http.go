package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// clients is the closed-loop client count: each client sends its next
// request only when the previous reply has arrived, as a compiler waiting
// on its scheduler does. Two match the two cores the benchmark is sized
// for.
const clients = 2

// worker is an in-process gpserved on a loopback listener.
type worker struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startWorker(nodeID string, slots int) (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: slots, NodeID: nodeID})
	w := &worker{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns when stop closes the server
	}()
	return w, nil
}

func (w *worker) stop() {
	_ = w.hs.Close()
	<-w.done
	w.srv.Close()
}

// fleet is an in-process gpcoordd with workers that registered through
// the agent protocol.
type fleet struct {
	coord   *cluster.Coordinator
	hs      *http.Server
	url     string
	done    chan struct{}
	workers []*worker
	agents  []*server.Agent
}

func startFleet(n, slots int) (*fleet, error) {
	coord, err := cluster.New(cluster.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	f := &fleet{coord: coord, hs: &http.Server{Handler: coord.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns when stop closes the server
	}()
	for i := 0; i < n; i++ {
		w, err := startWorker(fmt.Sprintf("fleet-worker-%d", i), slots)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		srv := w.srv
		f.agents = append(f.agents, server.StartAgent(server.AgentConfig{
			Coordinator: f.url,
			NodeID:      fmt.Sprintf("fleet-worker-%d", i),
			Endpoint:    w.url,
			Capacity:    slots,
			AlgoVersion: srv.AlgoVersion(),
			Load:        srv.Load,
			Epoch:       srv.Epoch,
			ApplyEpoch:  func(e uint64) { srv.FlushTo(e) },
		}))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for _, node := range coord.Nodes() {
			if node.State == cluster.NodeReady.String() {
				ready++
			}
		}
		if ready == n {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: %d of %d workers registered", ready, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (f *fleet) stop() {
	for _, a := range f.agents {
		a.Close()
	}
	_ = f.hs.Close()
	<-f.done
	f.coord.Close()
	for _, w := range f.workers {
		w.stop()
	}
}

// scrape reads the integer samples of the named unlabeled series from a
// daemon's /metrics page.
func scrape(hc *http.Client, url string, names ...string) (map[string]float64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics %s: %v", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metrics page has no %s", n)
		}
	}
	return out, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil, // loopback only
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// reply is one /v1/schedule round trip as the client saw it.
type reply struct {
	status int
	xcache string
	phases string
}

// post sends one schedule body and reads the reply into buf.
func post(hc *http.Client, url string, body []byte, reqID string, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), phases: resp.Header.Get("X-Phase-Timing")}, nil
}

// prewarm sends every SPECfp95 request once, in canonical order, from one
// client, and returns each reply body: the first response every later
// repeat must equal byte for byte.
func prewarm(hc *http.Client, url string, in *inputs) ([][]byte, error) {
	var buf bytes.Buffer
	refs := make([][]byte, len(in.spec))
	for i, r := range in.spec {
		rep, err := post(hc, url, r.body, "", &buf)
		if err != nil {
			return nil, fmt.Errorf("prewarm %s: %v", r.id(), err)
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("prewarm %s: HTTP %d: %s", r.id(), rep.status, firstLine(buf.Bytes()))
		}
		refs[i] = bytes.Clone(buf.Bytes())
	}
	return refs, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// outcome classifies one request for error_share.
type outcome int8

const (
	served     outcome = iota // 200 with correct bytes
	refused                   // 429
	failed                    // transport error or any other status
	mismatched                // 200 whose body is wrong
)

// tally counts request outcomes.
type tally struct {
	attempted, served, refused, failed, mismatched int
}

func (t *tally) count(o outcome) {
	t.attempted++
	switch o {
	case served:
		t.served++
	case refused:
		t.refused++
	case failed:
		t.failed++
	case mismatched:
		t.mismatched++
	}
}

// mismatch reclassifies a request counted as served whose body a later
// check rejected.
func (t *tally) mismatch() {
	t.served--
	t.mismatched++
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.served += o.served
	t.refused += o.refused
	t.failed += o.failed
	t.mismatched += o.mismatched
}

// errors counts every request that did not yield a correct body: the
// numerator of error_share, whose denominator is attempted.
func (t *tally) errors() int { return t.refused + t.failed + t.mismatched }

func classify(status int, correct bool) outcome {
	switch {
	case status == http.StatusTooManyRequests:
		return refused
	case status != http.StatusOK:
		return failed
	case !correct:
		return mismatched
	}
	return served
}

// sample is one served request of a traced window.
type sample struct {
	ms     float64
	hit    bool
	phases []phase
}

// freshReply is the first and only response to a fresh loop, kept small
// for the checks after the window: the body's digest for byte comparison
// and the fields the library comparison reads. A window holds thousands.
type freshReply struct {
	f      *fresh
	digest [sha256.Size]byte
	got    freshBody
	bad    bool // the body did not decode
}

// window is what one measured closed-loop window produced. Untraced
// windows keep only what the end-to-end metrics need, so the load
// generator's own memory stays small beside the daemons' in peak_rss_mb.
type window struct {
	tally
	elapsed float64
	lat     []float64 // round trip of every served request, ms
	perSec  []int     // served requests completed in each second
	samples []sample  // traced windows only: every served request
	fresh   []freshReply
	next    int // first sequence position the window did not send
}

// drive runs the closed-loop clients over the request sequence from
// position start until seconds have elapsed. Repeated requests are
// compared with refs inline; fresh replies are kept for checkFresh. With a
// recorder, the clients mint request IDs and keep each reply's X-Cache and
// X-Phase-Timing.
func drive(hc *http.Client, url string, in *inputs, refs [][]byte, start int, seconds float64, rec *recorder) (*window, error) {
	var next atomic.Int64
	next.Store(int64(start))
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	parts := make([]window, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			w.perSec = make([]int, int(seconds)+2)
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				pos := int(next.Add(1) - 1)
				if pos >= len(in.seq) {
					return
				}
				var body []byte
				var fr *fresh
				idx := in.seq[pos]
				if idx == freshSlot {
					var err error
					if fr, err = in.freshLoop(pos / freshEvery); err != nil {
						errs[c] = err
						return
					}
					body = fr.body
				} else {
					body = in.spec[idx].body
				}
				reqID := ""
				if rec != nil {
					reqID = fmt.Sprintf("pb-s%d-%d", in.seed, pos)
				}
				s0 := time.Now()
				rep, err := post(hc, url, body, reqID, &buf)
				s1 := time.Now()
				if err != nil {
					w.count(failed)
					continue
				}
				correct := fr != nil || bytes.Equal(buf.Bytes(), refs[idx])
				o := classify(rep.status, correct)
				w.count(o)
				if o != served {
					continue
				}
				ms := float64(s1.Sub(s0)) / 1e6
				w.lat = append(w.lat, ms)
				if sec := int(s1.Sub(t0).Seconds()); sec < len(w.perSec) {
					w.perSec[sec]++
				}
				if rec != nil {
					phases, err := parsePhaseTiming(rep.phases)
					if err != nil {
						errs[c] = err
						return
					}
					w.samples = append(w.samples, sample{ms: ms, hit: rep.xcache == "hit", phases: phases})
					rec.add(span{Name: "client.request", Req: reqID, Note: "x-cache=" + rep.xcache, PhaseText: rep.phases}, s0, s1)
				}
				if fr != nil {
					r := freshReply{f: fr, digest: sha256.Sum256(buf.Bytes())}
					r.bad = json.Unmarshal(buf.Bytes(), &r.got) != nil
					w.fresh = append(w.fresh, r)
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &window{elapsed: time.Since(t0).Seconds(), perSec: make([]int, int(seconds)+2), next: int(next.Load())}
	for c := range parts {
		if errs[c] != nil {
			return nil, errs[c]
		}
		p := &parts[c]
		out.tally.add(p.tally)
		out.lat = append(out.lat, p.lat...)
		for i, n := range p.perSec {
			out.perSec[i] += n
		}
		out.samples = append(out.samples, p.samples...)
		out.fresh = append(out.fresh, p.fresh...)
	}
	if out.next > len(in.seq) {
		out.next = len(in.seq)
	}
	return out, nil
}

// rate is the median of the window's per-second served counts over its
// whole seconds: throughput as a typical second saw it, which a burst of
// noise from outside the program moves less than the window's mean.
func (w *window) rate() float64 {
	whole := min(int(w.elapsed), len(w.perSec))
	if whole == 0 {
		return float64(w.served) / w.elapsed
	}
	secs := make([]float64, whole)
	for i := range secs {
		secs[i] = float64(w.perSec[i])
	}
	return median(sortedCopy(secs))
}

// libraryRefs memoizes the library schedule of each fresh-loop template.
type libraryRefs map[*request]*core.Result

func (lr libraryRefs) of(r *request) (*core.Result, error) {
	if res, ok := lr[r]; ok {
		return res, nil
	}
	res, err := core.ScheduleLoop(r.g, r.m, nil)
	if err != nil {
		return nil, err
	}
	lr[r] = res
	return res, nil
}

// freshBody is the part of a schedule response the fresh-loop check reads.
type freshBody struct {
	Loop    string `json:"loop"`
	II      int    `json:"ii"`
	Time    []int  `json:"time"`
	Cluster []int  `json:"cluster"`
}

// checkFresh compares every fresh reply with the library's schedule of its
// template — same II, issue times and clusters — and returns how many
// differ. Renaming a loop does not change its schedule.
func checkFresh(w *window, lib libraryRefs) (int, error) {
	bad := 0
	for _, fr := range w.fresh {
		res, err := lib.of(fr.f.tmpl)
		if err != nil {
			return 0, fmt.Errorf("library reference %s: %v", fr.f.tmpl.id(), err)
		}
		got := &fr.got
		if fr.bad || got.Loop != fr.f.name || got.II != res.Schedule.II ||
			!slices.Equal(got.Time, res.Schedule.Time) || !slices.Equal(got.Cluster, res.Schedule.Cluster) {
			bad++
		}
	}
	return bad, nil
}

// ipcOfBodies is meanIPC over the served pre-warm bodies: the IPC of the
// schedules the daemons actually returned.
func ipcOfBodies(in *inputs, refs [][]byte) (float64, error) {
	cycles := make([]int64, len(refs))
	for i, b := range refs {
		var body struct {
			Cycles int64 `json:"cycles"`
		}
		if err := json.Unmarshal(b, &body); err != nil {
			return 0, fmt.Errorf("pre-warm body %s: %v", in.spec[i].id(), err)
		}
		cycles[i] = body.Cycles
	}
	return meanIPC(in, func(i int) int64 { return cycles[i] }), nil
}
