package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/server"
	"repro/internal/store"
)

// recover replays the store into the coordinator at construction time.
// With the default fresh in-memory store this is a no-op; with a journal
// it is the restart path: adopt the registered nodes as suspect, rebuild
// every retained job from its journaled request, restore the cell
// fragments the journal proves done, and re-dispatch the rest.
func (c *Coordinator) recover() error {
	state, err := c.st.Load()
	if err != nil {
		return fmt.Errorf("load store: %w", err)
	}
	c.jobs.seq = state.JobSeq
	// The fleet epoch is journaled before any flush fans out, so restoring
	// it here is what keeps a restarted coordinator from resurrecting the
	// pre-flush view of the fleet.
	c.epoch.Store(state.Epoch)
	adopted := c.reg.adopt(state.Nodes)
	c.metrics.nodesAdopted.Add(int64(adopted))

	// Durable placements become the live table — and thereby affinity
	// hints: a resumed cell re-lands on the node the pre-restart
	// coordinator had it on, including a spill target the load bound chose,
	// instead of recomputing placement against a fleet that has not even
	// heartbeated yet.
	if len(state.Placements) > 0 {
		for _, rec := range state.Placements {
			c.placements.byKey[rec.Key] = rec
		}
		c.log.Info("recovery restored placement records", "placements", len(state.Placements))
	}

	resumed, restored := 0, 0
	for i := range state.Jobs {
		j, cells := c.rebuildJob(&state.Jobs[i])
		c.jobs.byID[j.id] = j
		c.jobs.order = append(c.jobs.order, j.id)
		restored += cells
		j.mu.Lock()
		running := j.state == jobRunning
		j.mu.Unlock()
		if running {
			resumed++
			c.jobs.wg.Add(1)
			go c.runJob(j)
		}
	}
	c.metrics.jobsResumed.Add(int64(resumed))
	c.metrics.cellsRestored.Add(int64(restored))
	if adopted > 0 || len(state.Jobs) > 0 {
		c.log.Info("recovery complete",
			"nodes_adopted", adopted, "jobs_rebuilt", len(state.Jobs),
			"jobs_resumed", resumed, "cells_restored", restored)
	}
	return nil
}

// rebuildJob reconstructs one job from its journal record. The cell list
// is re-derived from the journaled request — the enumeration is
// deterministic, so indices and content keys line up with what the
// pre-restart coordinator computed — and each journaled fragment is
// restored only if its content key matches the recomputed one; a mismatch
// (a tampered or stale fragment) is dropped and that cell recomputed. A
// record whose request no longer parses or resolves becomes a failed
// placeholder: visible in the listing with its error rather than silently
// vanishing. It returns the job and how many done cells were restored.
func (c *Coordinator) rebuildJob(rec *store.JobRecord) (*job, int) {
	j := &job{id: rec.ID, resumed: true, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(c.ctx)

	fail := func(reason string) (*job, int) {
		c.log.Warn("recovery: job unrecoverable", "job", rec.ID, "reason", reason)
		j.state = jobFailed
		j.cancel()
		close(j.done)
		return j, 0
	}

	var req server.SweepRequest
	if err := json.Unmarshal(rec.Request, &req); err != nil {
		return fail(fmt.Sprintf("unmarshal journaled request: %v", err))
	}
	machines, corpora, err := server.ResolveSweep(&req)
	if err != nil {
		return fail(fmt.Sprintf("resolve journaled request: %v", err))
	}
	j.cells, err = buildJobCells(&req, machines, corpora)
	if err != nil {
		return fail(err.Error())
	}

	restored := 0
	for _, frag := range rec.Cells {
		if frag.Index < 0 || frag.Index >= len(j.cells) {
			c.log.Warn("recovery: journaled cell out of range, recomputing",
				"job", rec.ID, "cell", frag.Index)
			continue
		}
		cl := j.cells[frag.Index]
		if cl.key != frag.Key {
			c.log.Warn("recovery: journaled cell key mismatch, recomputing",
				"job", rec.ID, "cell", frag.Index)
			continue
		}
		// Restored fragments must all come from one scheduler generation:
		// the first valid fragment's version becomes the resumed job's pin,
		// and fragments of any other version are dropped and recomputed —
		// the same no-mixing rule the live placement path enforces.
		if restored == 0 {
			j.algoVersion = frag.AlgoVersion
		} else if frag.AlgoVersion != j.algoVersion {
			c.log.Warn("recovery: journaled cell version mismatch, recomputing",
				"job", rec.ID, "cell", frag.Index,
				"cell_version", frag.AlgoVersion, "job_version", j.algoVersion)
			continue
		}
		cl.state = cellDone
		cl.rows = append([]byte(nil), frag.Rows...)
		restored++
	}

	complete := restored == len(j.cells)
	switch {
	case rec.State == store.JobDone && complete:
		j.state = jobDone
		var buf bytes.Buffer
		buf.Write(sweepCSVHeader)
		for _, cl := range j.cells {
			buf.Write(cl.rows)
		}
		j.csv = buf.Bytes()
		j.cancel()
		close(j.done)
	case rec.State == store.JobFailed:
		// The pre-restart coordinator gave up on it; keep the verdict (and
		// any restored fragments, for the partial-status view).
		j.state = jobFailed
		j.cancel()
		close(j.done)
	default:
		// Running — or journaled done with fragments that no longer check
		// out: resume and recompute what's missing. runJob skips the
		// restored cells and re-persists the terminal state when it lands.
		j.state = jobRunning
	}
	return j, restored
}
