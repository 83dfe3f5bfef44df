// Package cluster is the distributed scheduling control plane: the
// gpcoordd coordinator fronting a fleet of gpserved workers.
//
// Workers register with capacity and endpoint, heartbeat periodically and
// deregister on graceful shutdown; the coordinator tracks their health
// (ready / suspect / dead via missed-heartbeat thresholds), routes
// POST /v1/schedule by rendezvous hashing on the request's content-address
// key — so identical requests land on the same worker and the per-worker
// LRU caches form one sharded distributed cache — and fails over to the
// next-ranked node, with the failed one excluded, when a worker dies
// mid-request. An async job layer (POST /v1/jobs) shards a machines ×
// corpora sweep cell-by-cell across the fleet and survives worker loss: a
// reconciliation loop cancels work stranded on dead nodes and the cells are
// re-placed on survivors, so a finished job's CSV is byte-identical to the
// single-node bench.Sweep output no matter how many workers died on the
// way.
//
// Endpoints:
//
//	POST /v1/nodes/register            worker announces {id, endpoint, capacity}
//	POST /v1/nodes/heartbeat           worker liveness (+ piggybacked load report)
//	POST /v1/nodes/deregister          graceful worker exit
//	GET  /v1/fleet/nodes               node table: health, schema, in-flight, load
//	POST /v1/fleet/nodes/{id}/drain    stop placing on a node (undrain reverses)
//	POST /v1/schedule                  proxied single-loop scheduling (cache-affine)
//	POST /v1/schedule/batch            per-loop fan-out of a batch, reassembled in order
//	POST /v1/jobs                      async sweep job; returns {id, cells}
//	GET  /v1/jobs                      all retained jobs' status summaries
//	GET  /v1/jobs/{id}                 job status and per-cell placement detail
//	GET  /v1/jobs/{id}/csv             assembled CSV once the job is done
//	GET  /healthz                      liveness + fleet summary (JSON)
//	GET  /metrics                      coordinator + per-node Prometheus text
//
// Placement is rendezvous hashing with bounded loads: the HRW owner of a
// key serves it while its in-flight count stays under LoadBound × the
// fleet mean; beyond that the request spills to the next-ranked node, so a
// Zipf-hot key saturates neither its owner nor the response contract —
// responses stay byte-identical wherever they are computed. Every routed
// unit of work — a schedule request, a batch loop, a sweep cell — is placed
// by the one function place (hrw.go) and forwarded by the one attempt
// primitive; sweep cells additionally walk the journaled placement
// protocol in placement.go, the only placement that must survive a
// restart.
//
// All mutable control-plane state — node registrations, job specs,
// completed cell fragments — is written through a pluggable store
// (internal/store). With the default in-memory store a restart forgets
// everything, exactly the pre-durability behavior; with the journal store
// (gpcoordd -journal <dir>) a restarted coordinator replays the journal,
// adopts the registered nodes as suspect until their next heartbeat, and
// resumes every unfinished job, re-dispatching only the cells the journal
// does not prove done.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// Config tunes the coordinator. The zero value picks the defaults noted on
// each field.
type Config struct {
	// Store persists the coordinator's control-plane state. Nil means a
	// fresh in-memory store: no durability, no recovery, the exact
	// behavior of a journal-less gpcoordd. The Coordinator takes ownership
	// and closes it in Close.
	Store store.Store
	// Logger, when set, receives the coordinator's structured events —
	// recovery, store failures, failovers, suspect/dead transitions — with
	// request and node identities as fields. Nil drops them.
	Logger *slog.Logger
	// HeartbeatInterval is the cadence workers are told to heartbeat at
	// (default 2s).
	HeartbeatInterval time.Duration
	// SuspectAfter is the heartbeat age that turns a node suspect
	// (default 3 × HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter is the heartbeat age that turns a node dead and hands its
	// in-flight work to the reconciler (default 6 × HeartbeatInterval).
	DeadAfter time.Duration
	// DeadExpiry is how long a dead node is retained for observability
	// before it is garbage-collected from the registry (default 10m).
	DeadExpiry time.Duration
	// ReconcileInterval is the health-sweep and reconciliation cadence
	// (default HeartbeatInterval / 2).
	ReconcileInterval time.Duration
	// ScheduleTimeout bounds one proxied /v1/schedule attempt (default 60s).
	ScheduleTimeout time.Duration
	// CellTimeout bounds one job-cell attempt on one worker (default 10m —
	// a full four-scheme panel over a corpus is real work; the reconciler
	// usually re-places a dead node's cells long before this backstop).
	CellTimeout time.Duration
	// MaxCellAttempts bounds how many workers one cell is tried on before
	// the job is failed (default 8).
	MaxCellAttempts int
	// JobWorkers is the number of concurrently dispatched cells per job
	// (default 4).
	JobWorkers int
	// MaxJobs bounds the retained job table; creating a job beyond it
	// evicts the oldest finished job, and fails with 429 when every
	// retained job is still running (default 64).
	MaxJobs int
	// MaxBodyBytes caps a request body (default 8 MiB).
	MaxBodyBytes int64
	// ShadowRate is the fraction of successful proxied /v1/schedule
	// responses replayed against a second worker and byte-compared
	// (0 disables, 1 shadows everything). Any divergence increments
	// gpcoordd_shadow_mismatch_total and marks the outlier-version node
	// suspect: determinism across the fleet is a correctness invariant, so
	// a mismatch means a worker is running a different algorithm than it
	// claims — exactly the failure a rolling upgrade can smuggle in.
	ShadowRate float64
	// ShadowCanary, when set, names the node every shadow replay is sent
	// to (a designated canary running the incoming version). Empty picks
	// the next-HRW-ranked worker after the one that served the request.
	ShadowCanary string
	// LoadBound is the bounded-load factor c of placement: the HRW owner
	// serves a key only while its in-flight count stays under
	// ceil(c·(m+1)/n) (m = fleet in-flight, n = candidates); an overloaded
	// owner spills to the next-ranked node under the bound. 0 picks the
	// default 1.25; negative disables spilling (pure HRW).
	LoadBound float64
}

func (c Config) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 2 * time.Second
}

func (c Config) suspectAfter() time.Duration {
	if c.SuspectAfter > 0 {
		return c.SuspectAfter
	}
	return 3 * c.heartbeatInterval()
}

func (c Config) deadAfter() time.Duration {
	if c.DeadAfter > 0 {
		return c.DeadAfter
	}
	return 6 * c.heartbeatInterval()
}

func (c Config) deadExpiry() time.Duration {
	if c.DeadExpiry > 0 {
		return c.DeadExpiry
	}
	return 10 * time.Minute
}

func (c Config) reconcileInterval() time.Duration {
	if c.ReconcileInterval > 0 {
		return c.ReconcileInterval
	}
	return c.heartbeatInterval() / 2
}

func (c Config) scheduleTimeout() time.Duration {
	if c.ScheduleTimeout > 0 {
		return c.ScheduleTimeout
	}
	return 60 * time.Second
}

func (c Config) cellTimeout() time.Duration {
	if c.CellTimeout > 0 {
		return c.CellTimeout
	}
	return 10 * time.Minute
}

func (c Config) maxCellAttempts() int {
	if c.MaxCellAttempts > 0 {
		return c.MaxCellAttempts
	}
	return 8
}

func (c Config) jobWorkers() int {
	if c.JobWorkers > 0 {
		return c.JobWorkers
	}
	return 4
}

func (c Config) maxJobs() int {
	if c.MaxJobs > 0 {
		return c.MaxJobs
	}
	return 64
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 8 << 20
}

func (c Config) loadBound() float64 {
	switch {
	case c.LoadBound < 0:
		return 0 // disabled: place degenerates to plain HRW
	case c.LoadBound == 0:
		return 1.25
	}
	return c.LoadBound
}

// Coordinator is the gpcoordd daemon. Create with New, serve Handler, and
// Close after the HTTP server has shut down (Close stops the reconciler
// and aborts running jobs).
type Coordinator struct {
	cfg     Config
	reg     *registry
	st      store.Store
	metrics metrics
	mux     *http.ServeMux
	client  *http.Client
	log     *slog.Logger

	// traces is the bounded ring of recent placement traces behind
	// GET /v1/debug/traces; one request ID indexes the coordinator's view
	// here and the worker's view in its own ring.
	traces *obs.Ring

	ctx           context.Context
	stop          context.CancelFunc
	reconcileDone chan struct{}

	// epoch is the fleet cache epoch: raised (and journaled first) by
	// POST /v1/cache/flush, pushed to workers by the fan-out and by every
	// heartbeat response, restored from the store on restart.
	epoch atomic.Uint64
	// flushMu serializes flush fan-outs so two concurrent flushes cannot
	// interleave their journal write and fleet broadcast.
	flushMu sync.Mutex

	shadow shadowVerifier

	jobs jobTable

	// placements is the live table of durable (sweep-cell) placements,
	// mirroring the store.
	placements placementTable
}

// New returns a running coordinator (its reconciliation loop is live),
// after replaying whatever state cfg.Store holds: journaled nodes are
// adopted as suspect, journaled unfinished jobs are resumed. A store that
// cannot be loaded or whose jobs cannot be indexed fails construction —
// silently discarding a journal would break the durability promise.
func New(cfg Config) (*Coordinator, error) {
	st := cfg.Store
	if st == nil {
		st = store.NewMemory()
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:           cfg,
		st:            st,
		mux:           http.NewServeMux(),
		client:        &http.Client{},
		log:           log,
		traces:        obs.NewRing(coordTraceRingSize),
		ctx:           ctx,
		stop:          stop,
		reconcileDone: make(chan struct{}),
	}
	c.metrics.init()
	c.reg = newRegistry(st, c.storeError)
	c.shadow.c = c
	c.jobs.byID = make(map[string]*job)
	c.placements.byKey = make(map[string]store.PlacementRecord)
	c.mux.HandleFunc("POST /v1/nodes/register", c.handleRegister)
	c.mux.HandleFunc("POST /v1/nodes/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/nodes/deregister", c.handleDeregister)
	c.mux.HandleFunc("GET /v1/fleet/nodes", c.handleNodes)
	c.mux.HandleFunc("POST /v1/fleet/nodes/{id}/drain", c.handleDrain)
	c.mux.HandleFunc("POST /v1/fleet/nodes/{id}/undrain", c.handleUndrain)
	c.mux.HandleFunc("POST /v1/schedule", c.handleSchedule)
	c.mux.HandleFunc("POST /v1/schedule/batch", c.handleScheduleBatch)
	c.mux.HandleFunc("POST /v1/cache/flush", c.handleCacheFlush)
	c.mux.HandleFunc("POST /v1/jobs", c.handleCreateJob)
	c.mux.HandleFunc("GET /v1/jobs", c.handleListJobs)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/csv", c.handleJobCSV)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /v1/debug/traces", c.handleDebugTraces)
	c.mux.HandleFunc("GET /v1/debug/traces/{id}", c.handleDebugTrace)
	if err := c.recover(); err != nil {
		stop()
		close(c.reconcileDone)
		return nil, err
	}
	go c.reconcileLoop()
	return c, nil
}

// coordTraceRingSize bounds the coordinator's buffer of recent placement
// traces served by /v1/debug/traces.
const coordTraceRingSize = 128

// storeError records a best-effort persistence failure: counted, logged,
// never fatal to the serving path.
func (c *Coordinator) storeError(op string, err error) {
	c.metrics.storeErrors.Add(1)
	c.log.Warn("store operation failed", "op", op, "err", err.Error())
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c }

// ServeHTTP dispatches to the coordinator's endpoints. Every response
// carries the fleet cache epoch, so clients can tell at a glance whether
// the fleet has converged past a flush they initiated; every response also
// echoes the request ID (propagated or minted here — the coordinator is the
// edge), which the proxy paths forward to workers so one ID stitches the
// coordinator's placement trace to the worker's phase trace.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	id, _ := obs.RequestID(r)
	w.Header().Set(obs.RequestIDHeader, id)
	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(c.epoch.Load(), 10))
	c.mux.ServeHTTP(w, r)
}

// Close stops the reconciler, cancels running jobs, waits for their
// dispatchers to exit, and closes the store. Running jobs are abandoned,
// not failed: their journaled state stays "running" so the next
// coordinator on the same journal resumes them. Call after the HTTP
// server has shut down.
func (c *Coordinator) Close() {
	c.stop()
	<-c.reconcileDone
	c.jobs.wg.Wait()
	c.shadow.wg.Wait()
	if err := c.st.Close(); err != nil {
		c.log.Warn("store close failed", "err", err.Error())
	}
}

// Nodes returns the current node table (tests and gpcoordd logs use it).
func (c *Coordinator) Nodes() []NodeInfo { return c.reg.snapshot() }

// HealthSummary is the body of the coordinator's GET /healthz: liveness
// plus a one-glance fleet summary (durability mode, node-health counts,
// running jobs and epoch).
type HealthSummary struct {
	Status  string `json:"status"`
	Journal bool   `json:"journal"`
	Epoch   uint64 `json:"epoch"`
	Nodes   struct {
		Ready    int `json:"ready"`
		Suspect  int `json:"suspect"`
		Dead     int `json:"dead"`
		Draining int `json:"draining"`
	} `json:"nodes"`
	JobsRunning int `json:"jobs_running"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sum := HealthSummary{Status: "ok", Journal: c.st.Durable(), Epoch: c.epoch.Load()}
	for _, n := range c.reg.snapshot() {
		switch {
		case n.Draining:
			sum.Nodes.Draining++
		case n.State == NodeReady.String():
			sum.Nodes.Ready++
		case n.State == NodeSuspect.String():
			sum.Nodes.Suspect++
		default:
			sum.Nodes.Dead++
		}
	}
	sum.JobsRunning = c.jobs.running()
	writeJSON(w, http.StatusOK, sum)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	c.metrics.render(w, c.reg.snapshot(), c.jobs.running(), c.epoch.Load(), c.st.Stats())
}

// writeError answers with the fleet-wide error envelope
// {"error":{"code","message","retryable"}} — the same shape gpserved
// renders, so clients parse one format no matter which daemon refused them.
func (c *Coordinator) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	if status == http.StatusBadRequest {
		c.metrics.badRequests.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(server.MarshalError(code, fmt.Sprintf(format, args...)))
	_, _ = io.WriteString(w, "\n")
}

// writeJSON answers with v as indented JSON: the one encoding of every
// coordinator status and listing body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (c *Coordinator) readJSON(w http.ResponseWriter, r *http.Request, out any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.cfg.maxBodyBytes()))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req server.RegisterRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad register body: %v", err)
		return
	}
	if req.ID == "" || req.Endpoint == "" {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "register needs id and endpoint")
		return
	}
	// A joiner speaking a different wire schema is refused outright: the
	// coordinator relays worker bytes verbatim, so one fleet must speak one
	// codec or clients would see responses they cannot parse.
	if fleet, conflict := c.reg.schemaConflict(req.SchemaVersion); conflict {
		c.metrics.schemaRefusals.Add(1)
		c.writeError(w, http.StatusConflict, server.ErrCodeSchemaMismatch,
			"node %s speaks schema %q but the fleet speaks %q", req.ID, req.SchemaVersion, fleet)
		return
	}
	if err := c.reg.register(req.ID, req.Endpoint, req.Capacity, req.AlgoVersion, req.Epoch); err != nil {
		c.storeError("put_node", err)
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "persist registration: %v", err)
		return
	}
	c.reg.noteSchema(req.ID, req.SchemaVersion)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.RegisterResponse{
		HeartbeatMillis: int(c.cfg.heartbeatInterval() / time.Millisecond),
		Epoch:           c.epoch.Load(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req server.HeartbeatRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad heartbeat body: %v", err)
		return
	}
	// A worker that upgraded in place to a different wire schema is as
	// unwelcome as a mixed-schema joiner (it restarted, so the register
	// gate never saw the new codec): refuse the beat so it stops serving
	// the fleet rather than smuggling a second codec in.
	if fleet, conflict := c.reg.schemaConflict(req.SchemaVersion); conflict {
		c.metrics.schemaRefusals.Add(1)
		c.writeError(w, http.StatusConflict, server.ErrCodeSchemaMismatch,
			"node %s speaks schema %q but the fleet speaks %q", req.ID, req.SchemaVersion, fleet)
		return
	}
	if !c.reg.heartbeat(req.ID, req.AlgoVersion, req.Epoch) {
		// Unknown ID: the coordinator restarted (or the node was evicted);
		// 404 tells the agent to fall back to the register path.
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown node %q, re-register", req.ID)
		return
	}
	c.reg.noteSchema(req.ID, req.SchemaVersion)
	if req.Load != nil {
		c.reg.absorbLoad(req.ID, req.Load.Inflight, req.Load.Shed, req.Load.P99Micros)
	}
	// Answer with the fleet epoch: a worker that missed the flush fan-out
	// converges on its next beat instead of serving stale bytes forever.
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.HeartbeatResponse{Epoch: c.epoch.Load()})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req server.HeartbeatRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad deregister body: %v", err)
		return
	}
	c.reg.deregister(req.ID)
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain and handleUndrain flip a node's drain flag
// (POST /v1/fleet/nodes/{id}/drain and /undrain): a draining node keeps
// its in-flight work and heartbeats but attracts no new placements, and
// its durable placements walk the Ready→Draining edge (back on undrain).
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request)   { c.setDrain(w, r, true) }
func (c *Coordinator) handleUndrain(w http.ResponseWriter, r *http.Request) { c.setDrain(w, r, false) }

func (c *Coordinator) setDrain(w http.ResponseWriter, r *http.Request, draining bool) {
	id := r.PathValue("id")
	if !c.reg.setDraining(id, draining) {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown node %q", id)
		return
	}
	c.metrics.drainFlips.Add(1)
	flipped := c.drainPlacements(id, draining)
	c.log.Info("node drain flag flipped", "node", id, "draining", draining, "placements_flipped", flipped)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"node": id, "draining": draining, "placements_flipped": flipped})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.reg.snapshot())
}

// handleDebugTraces is GET /v1/debug/traces: the most recent placement
// traces, newest first. Debug surface only — never part of a relayed body.
func (c *Coordinator) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.traces.Recent(64))
}

// handleDebugTrace is GET /v1/debug/traces/{id}: one placement trace by
// request ID, if it is still in the ring.
func (c *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := c.traces.Get(r.PathValue("id"))
	if !ok {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "no trace for request id %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, &t)
}

// finishProxy stamps a proxy trace's outcome, exposes its phases in the
// X-Phase-Timing response header (strictly outside the relayed body — the
// byte-determinism contract covers bodies only), publishes it to the debug
// ring, and observes the endpoint/outcome latency cell. Must run before the
// response status is written.
func (c *Coordinator) finishProxy(w http.ResponseWriter, tr *obs.Trace, endpoint, outcome string, start time.Time) {
	tr.SetOutcome(outcome)
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("X-Phase-Timing", st)
	}
	c.traces.Publish(tr)
	c.metrics.observe(endpoint, outcome, time.Since(start))
}

// handleSchedule proxies one scheduling request to the fleet: rendezvous
// placement on the content-address key, then failover down the ranking
// with an exclusion list when workers fail. The worker's response —
// including its X-Cache verdict — is relayed byte-for-byte, plus an X-Node
// header naming the worker that served it.
func (c *Coordinator) handleSchedule(w http.ResponseWriter, r *http.Request) {
	c.metrics.scheduleReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "proxy-schedule")
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, c.cfg.maxBodyBytes())); err != nil {
		c.finishProxy(w, tr, "schedule", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "read body: %v", err)
		return
	}
	reqBody := buf.Bytes()
	// Admission at the edge: a body gpserved would reject burns no worker,
	// and the parse yields the placement key.
	key, err := server.ScheduleCacheKey(reqBody)
	if err != nil {
		c.finishProxy(w, tr, "schedule", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	tr.Phase("admission", time.Since(start))

	fr := c.scheduleOnFleet(r.Context(), key, reqBody, tr.ID, tr)
	if fr.resp != nil {
		tr.SetNode(fr.node.id)
		relayServed(w, fr.node.id, fr.resp)
		c.finishProxy(w, tr, "schedule", fr.outcome, start)
		w.WriteHeader(fr.resp.StatusCode)
		_, _ = w.Write(fr.body)
		if fr.resp.StatusCode == http.StatusOK {
			c.shadow.maybeReplay(fr.node, key, reqBody, fr.body)
		}
		return
	}
	status, code, msg := c.fleetFailure(fr)
	if status == http.StatusTooManyRequests {
		// Every worker shed with 429: the fleet is loaded, not broken.
		// Relay the single-node backpressure contract so clients back off
		// instead of hard-retrying a "failure".
		w.Header().Set("Retry-After", "1")
	}
	c.finishProxy(w, tr, "schedule", fr.outcome, start)
	c.writeError(w, status, code, "%s", msg)
}

// fleetResult is scheduleOnFleet's outcome: a served response (resp != nil,
// any status below 500 except 429) or a failure. outcome says how placement
// resolved, the low-cardinality outcome label of the duration histogram:
// owner (the HRW owner served), spill (bounded load moved it), failover (a
// worker failed first), or a failure — canceled (the client hung up),
// no-workers (nothing placeable), saturated (every attempt shed with 429)
// or error.
type fleetResult struct {
	node    candidate
	resp    *http.Response
	body    []byte
	outcome string
	lastErr error // last worker failure
}

// fleetFailure maps a fleetResult that served nothing to the client-facing
// status, error code and message — one table for the singleton proxy and
// the batch fan-out. No placeable worker and a fully saturated fleet both
// count as shed for lack of capacity.
func (c *Coordinator) fleetFailure(fr fleetResult) (status int, code, msg string) {
	switch fr.outcome {
	case "canceled":
		// Nobody reads this answer: the client is gone.
		return http.StatusBadGateway, server.ErrCodeUpstreamFailed, "request canceled by the client"
	case "no-workers":
		c.metrics.noCapacity.Add(1)
		return http.StatusServiceUnavailable, server.ErrCodeNoWorkers, "no ready workers"
	case "saturated":
		c.metrics.noCapacity.Add(1)
		return http.StatusTooManyRequests, server.ErrCodeSaturated, "every worker is saturated, retry later"
	}
	return http.StatusBadGateway, server.ErrCodeUpstreamFailed, fmt.Sprintf("all workers failed, last: %v", fr.lastErr)
}

// scheduleOnFleet places one singleton schedule body by bounded-load
// rendezvous hashing on its content-address key and fails fast down the
// HRW ranking: a worker that fails (transport error, 5xx, 503) is suspected
// and excluded, a saturated one (429) is excluded without blame, and the
// next attempt places among the rest. Both the singleton proxy and the
// batch fan-out ride on it; a client hang-up ends it without blaming any
// worker. Every attempt is recorded on tr (nil-safe) and forwarded under
// reqID, and every failure emits one structured event carrying the request
// ID, node, attempt number and reason.
func (c *Coordinator) scheduleOnFleet(ctx context.Context, key string, reqBody []byte, reqID string, tr *obs.Trace) fleetResult {
	w := work{key: key, path: "/v1/schedule", body: reqBody, timeout: c.cfg.scheduleTimeout(), reqID: reqID}
	exclude := make(map[string]bool)
	var fr fleetResult
	spilled, failedOver := false, false
	for n := 1; ; n++ {
		placeStart := time.Now()
		node, owner, rank, ok := place(c.reg.candidates(), key, exclude, c.cfg.loadBound())
		if !ok {
			break
		}
		spilled = spilled || rank > 0
		tr.PhaseNote("place", fmt.Sprintf("node=%s rank=%d owner=%s spilled=%t excluded=%d",
			node.id, rank, owner, rank > 0, len(exclude)), time.Since(placeStart))
		proxyStart := time.Now()
		a := c.attempt(ctx, ctx, w, node, owner, rank)
		tr.PhaseNote("proxy", "node="+node.id+" "+a.note(), time.Since(proxyStart))
		switch a.class {
		case attemptCanceled:
			fr.outcome = "canceled"
			return fr
		case attemptOK, attemptRejected:
			// 2xx and request-defect 4xx relay as-is: a 400 is wrong on
			// every worker, retrying it elsewhere would just burn the fleet.
			fr.node, fr.resp, fr.body, fr.outcome = node, a.resp, a.body, "owner"
			switch {
			case failedOver:
				fr.outcome = "failover"
			case spilled:
				fr.outcome = "spill"
			}
			return fr
		case attemptSaturated:
			// Saturation is load, not sickness: try another worker without
			// marking this one suspect.
			c.metrics.retries.Add(1)
			c.log.Info("worker saturated, retrying on another",
				"request", reqID, "node", node.id, "attempt", n)
		default:
			// Transport failure, truncated body or 5xx: the worker is gone
			// or going — suspect it and fail over down the HRW ranking.
			c.reg.reportFailure(node.id)
			c.metrics.failovers.Add(1)
			failedOver = true
			c.log.Warn("worker attempt failed, failing over",
				"request", reqID, "node", node.id, "attempt", n, "reason", a.reason())
		}
		exclude[node.id] = true
		fr.lastErr = fmt.Errorf("worker %s: %s", node.id, a.reason())
	}
	switch {
	case fr.lastErr == nil:
		fr.outcome = "no-workers"
	case failedOver:
		fr.outcome = "error"
	default: // every attempt shed with 429
		fr.outcome = "saturated"
	}
	return fr
}

// handleScheduleBatch fans a /v1/schedule/batch envelope out across the
// fleet loop by loop: every loop is forwarded as its equivalent singleton
// request to the worker that rendezvous placement would pick for that
// singleton — so batch loops hit exactly the cache shards singleton traffic
// warms — and the responses are reassembled under the server package's
// batch framing, byte-identical to a single worker's batch of the same
// envelope (asserted by the cluster smoke test, including under worker
// kill: a dead worker's loops fail over and the bytes do not change).
// Per-loop failures render as error elements in place; loops that cannot be
// forwarded at all (no workers, fleet saturated) do too, keeping partial
// results useful. Shadow replay stays a singleton-path concern.
func (c *Coordinator) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	c.metrics.batchReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "proxy-batch")
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, c.cfg.maxBodyBytes())); err != nil {
		c.finishProxy(w, tr, "batch", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "read body: %v", err)
		return
	}
	items, err := server.BatchItems(buf.Bytes())
	if err != nil {
		c.finishProxy(w, tr, "batch", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	c.metrics.batchLoops.Add(int64(len(items)))
	tr.PhaseNote("admission", fmt.Sprintf("loops=%d", len(items)), time.Since(start))

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/json")
	// The envelope streams, so X-Phase-Timing goes out before any loop runs
	// and carries admission only; per-loop place/proxy phases land in the
	// published trace, each loop forwarded under the deterministic suffixed
	// request ID (envelope#i) so a client can pull the full fan-out from
	// /v1/debug/traces by prefix.
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("X-Phase-Timing", st)
	}
	_, _ = io.WriteString(w, server.BatchOpen)
	for i := range items {
		if i > 0 {
			_, _ = io.WriteString(w, server.BatchSep)
		}
		_, _ = w.Write(c.batchElement(r.Context(), &items[i], obs.SuffixID(tr.ID, i), tr))
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, _ = io.WriteString(w, server.BatchClose)
	tr.SetOutcome("ok")
	c.traces.Publish(tr)
}

// batchElement resolves one batch loop to its element bytes: a loop with a
// local admission error renders it without burning a worker; otherwise the
// forwarded singleton response body (success or per-loop 4xx alike) is the
// element, trailing newline trimmed to fit the framing. Each forwarded loop
// is observed as one endpoint="batch" histogram sample under its own
// placement outcome (the envelope itself is not observed again).
func (c *Coordinator) batchElement(ctx context.Context, it *server.BatchItem, loopID string, tr *obs.Trace) []byte {
	if it.Err != nil {
		return server.ErrorElement(server.ErrCodeBadRequest, it.Err.Error())
	}
	start := time.Now()
	fr := c.scheduleOnFleet(ctx, it.Key, it.Body, loopID, tr)
	elem := bytes.TrimSuffix(fr.body, []byte("\n"))
	if fr.resp == nil {
		_, code, msg := c.fleetFailure(fr)
		elem = server.ErrorElement(code, msg)
	}
	c.metrics.observe("batch", fr.outcome, time.Since(start))
	return elem
}

// relayServed copies the response headers of the attempt actually being
// relayed to the client, by explicit whitelist. Only this helper may write
// proxied headers: failed attempts (a 429's Retry-After, a dying worker's
// X-Cache) never touch w, so a failover can't leak headers from a worker
// whose body the client never sees.
func relayServed(w http.ResponseWriter, nodeID string, resp *http.Response) {
	h := w.Header()
	h.Set("X-Node", nodeID)
	for _, name := range []string{"Content-Type", "X-Cache", "Retry-After", "X-Algo-Version", "X-Algo-Epoch", "X-Schema-Version"} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
}

// Epoch returns the current fleet cache epoch (tests and gpcoordd logs).
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// FlushNodeResult is one node's outcome in a flush fan-out response.
type FlushNodeResult struct {
	Node  string `json:"node"`
	Epoch uint64 `json:"epoch,omitempty"`
	Error string `json:"error,omitempty"`
}

// FlushFleetResponse is the body of a successful coordinator
// POST /v1/cache/flush.
type FlushFleetResponse struct {
	Epoch uint64            `json:"epoch"`
	Nodes []FlushNodeResult `json:"nodes"`
}

// handleCacheFlush is POST /v1/cache/flush on the coordinator: raise the
// fleet cache epoch and fan the flush out to every non-dead worker. The
// order is the durability contract: the new epoch is journaled before
// anything else happens, so a coordinator that crashes mid-fan-out
// restarts at the post-flush epoch and the heartbeat path converges the
// workers the broadcast missed — the one unacceptable outcome, a restart
// resurrecting the pre-flush view, cannot happen. A journal failure is a
// 500 with the epoch unchanged.
func (c *Coordinator) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	var req server.FlushRequest
	if err := c.readJSON(w, r, &req); err != nil && err != io.EOF {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad flush body: %v", err)
		return
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	epoch := c.epoch.Load() + 1
	if req.Epoch > epoch {
		epoch = req.Epoch
	}
	if err := c.st.SetEpoch(epoch); err != nil {
		c.storeError("set_epoch", err)
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "persist epoch: %v", err)
		return
	}
	c.epoch.Store(epoch)
	c.metrics.cacheFlushes.Add(1)
	c.log.Info("cache flush raised fleet epoch",
		"request", r.Header.Get(obs.RequestIDHeader), "epoch", epoch)

	flushBody, _ := json.Marshal(server.FlushRequest{Epoch: epoch})
	out := FlushFleetResponse{Epoch: epoch}
	for _, node := range c.reg.candidates() {
		res := FlushNodeResult{Node: node.id}
		resp, body, err := c.forward(r.Context(), node, "/v1/cache/flush", flushBody, c.cfg.scheduleTimeout(), r.Header.Get(obs.RequestIDHeader))
		switch {
		case err != nil:
			res.Error = err.Error()
		case resp.StatusCode != http.StatusOK:
			res.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, firstLine(body))
		default:
			var fr server.FlushResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				res.Error = fmt.Sprintf("bad flush response: %v", err)
				break
			}
			res.Epoch = fr.Epoch
			c.reg.setNodeEpoch(node.id, fr.Epoch)
		}
		out.Nodes = append(out.Nodes, res)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })

	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(epoch, 10)) // ServeHTTP stamped the pre-flush epoch
	writeJSON(w, http.StatusOK, out)
}

// work is one unit of routed work as the attempt primitive forwards it.
type work struct {
	key     string // content address: the placement key and spill class
	path    string // worker endpoint
	body    []byte
	timeout time.Duration // bound on one attempt
	reqID   string        // propagated X-Request-Id
}

// attemptClass is how one forwarded attempt resolved. Each retry loop maps
// the classes to its own policy.
type attemptClass int

const (
	attemptOK          attemptClass = iota // 200
	attemptRejected                        // any other status below 500 but 429: the work itself is bad
	attemptSaturated                       // 429: the worker is loaded, not sick
	attemptUnavailable                     // 503
	attemptServerError                     // any other 5xx
	attemptTransport                       // transport error, timeout, truncated body or per-attempt cancel
	attemptCanceled                        // the caller itself gave up: no node is to blame
)

// attemptResult is one attempt's classified answer.
type attemptResult struct {
	class attemptClass
	resp  *http.Response
	body  []byte
	err   error
}

// reason renders the answer for logs and error messages.
func (a attemptResult) reason() string {
	if a.err != nil {
		return a.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", a.resp.StatusCode, firstLine(a.body))
}

// note is the answer's trace note.
func (a attemptResult) note() string {
	switch a.class {
	case attemptCanceled:
		return "canceled"
	case attemptTransport:
		return "transport-error"
	case attemptSaturated:
		return "saturated"
	}
	return fmt.Sprintf("http-%d", a.resp.StatusCode)
}

// attempt runs one attempt of w on a placed node — the steps the schedule
// and sweep-cell retry loops share. It counts the placement and the node's
// request, attributes a bounded-load spill (rank > 0) to the owner that
// shed the key, holds the node's in-flight count (the load bounded-load
// placement spills on) across the forward, and classifies the answer.
//
// ctx is the caller's own context; fwdCtx, derived from it, is the one the
// forward runs under. When ctx ends — a client hang-up, a coordinator
// shutting down — the attempt is attemptCanceled and blames no node; a
// cancel of fwdCtx alone, the reconciler yanking a cell off a dead node, is
// a transport failure like any other.
func (c *Coordinator) attempt(ctx, fwdCtx context.Context, w work, node candidate, owner string, rank int) attemptResult {
	if err := ctx.Err(); err != nil {
		return attemptResult{class: attemptCanceled, err: err}
	}
	c.metrics.placements.Add(1)
	c.reg.countRequest(node.id)
	if rank > 0 {
		c.metrics.spills.Add(1)
		c.reg.countSpill(owner, node.id)
		c.metrics.noteSpill(w.key)
	}
	c.reg.incInflight(node.id)
	resp, body, err := c.forward(fwdCtx, node, w.path, w.body, w.timeout, w.reqID)
	c.reg.decInflight(node.id)
	a := attemptResult{resp: resp, body: body, err: err}
	switch {
	case err != nil && ctx.Err() != nil:
		a.class = attemptCanceled
	case err != nil:
		a.class = attemptTransport
	case resp.StatusCode == http.StatusOK:
		a.class = attemptOK
	case resp.StatusCode == http.StatusTooManyRequests:
		a.class = attemptSaturated
	case resp.StatusCode == http.StatusServiceUnavailable:
		a.class = attemptUnavailable
	case resp.StatusCode >= 500:
		a.class = attemptServerError
	default:
		a.class = attemptRejected
	}
	return a
}

// forward posts body to node's path and reads the full response body
// before reporting success, so a connection that dies mid-response counts
// as a node failure while the coordinator can still fail over (nothing has
// been written to the client yet). A non-empty reqID propagates as the
// X-Request-Id header, so the worker's own trace of the forwarded request
// files under the same identity the coordinator's placement trace carries.
func (c *Coordinator) forward(ctx context.Context, node candidate, path string, body []byte, timeout time.Duration, reqID string) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.endpoint+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

// firstLine trims an error body for log/relay contexts.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// reconcileLoop is the coordinator's health detector and work re-placer:
// every tick it applies the missed-heartbeat thresholds, then cancels
// in-flight job cells assigned to nodes that just died so their
// dispatchers immediately re-place them on survivors (the persys-style
// desired-state reconciliation, specialized to sweep cells).
func (c *Coordinator) reconcileLoop() {
	defer close(c.reconcileDone)
	t := time.NewTicker(c.cfg.reconcileInterval())
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		suspected, died := c.reg.sweepHealth(c.cfg.suspectAfter(), c.cfg.deadAfter())
		for _, id := range suspected {
			c.log.Warn("node suspected: missed heartbeats", "node", id)
		}
		for _, id := range died {
			canceled := c.jobs.cancelInflightOn(id)
			c.metrics.reconcilePlaced.Add(canceled)
			c.log.Warn("node dead, re-placing its work", "node", id, "cells_canceled", canceled)
		}
		c.reg.expireDead(c.cfg.deadExpiry())
	}
}
