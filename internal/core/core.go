// Package core implements the paper's primary contribution: the GP code
// generation framework (Figure 1) that couples the multilevel
// graph-partitioning cluster assignment with the URACAM-based modulo
// scheduler.
//
// The control flow follows §3.1 exactly:
//
//  1. Compute the MII and partition the DDG at that II; the partition also
//     yields IIbus, the bus-imposed II bound.
//  2. Try to schedule at the current II — which starts at the MII even when
//     IIbus is larger, "on the hope that some communications will be
//     performed through memory instead of the bus".
//  3. On failure, increase the II. The GP scheme recomputes the partition
//     only when IIbus > II (the partition, not the machine resources, is
//     the binding constraint); the Fixed Partition variant never
//     recomputes; URACAM never had a partition.
//  4. Loops whose II escalates past a limit fall back to acyclic list
//     scheduling, as the paper does for the few loops where modulo
//     scheduling becomes inappropriate (§4.1).
//
// Most of a loop's cost is failed attempts, and the walk is sequential
// only in appearance: the partition used at each II depends on the
// earlier partitions' IIbus alone, never on whether an attempt succeeded.
// So idle cores attempt later IIs of the same loop while the current one
// runs, the lowest successful II wins, and the work above it is canceled.
// The Result is the sequential walk's, field for field, except for the
// timings and Discarded (escalate.go explains why the overlap is exact).
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// Algorithm selects one of the compared schedulers.
type Algorithm int8

const (
	// GP is the paper's scheme: graph partitioning, flexible scheduling,
	// selective repartitioning.
	GP Algorithm = iota
	// FixedPartition follows the initial partition rigidly and only ever
	// raises the II.
	FixedPartition
	// URACAM is the best previously published scheme: integrated per-node
	// cluster assignment with no global partition.
	URACAM
)

var algNames = [...]string{"GP", "Fixed", "URACAM"}

// String returns the algorithm's short name as used in tables.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algNames) {
		return fmt.Sprintf("Algorithm(%d)", int8(a))
	}
	return algNames[a]
}

// Options configures ScheduleLoop. The zero value is the paper-faithful GP
// configuration.
type Options struct {
	// Algorithm selects the scheduling scheme.
	Algorithm Algorithm
	// Partition tunes the graph partitioner (ablations); nil for defaults.
	Partition *partition.Options
	// MeritThreshold is forwarded to the scheduler's figure of merit.
	MeritThreshold float64
	// IIWindow bounds how far past the MII the II may escalate before the
	// list-scheduling fallback engages. Zero means the default MII+64.
	IIWindow int
	// Portfolio, when > 1, races K deterministically-seeded partition
	// starts (seeds 0..K−1; seed 0 is the canonical paper start) in
	// parallel at every II of the escalation and keeps the best schedule
	// under a fixed tie-break: lowest II, then the partition's
	// execution-time bound, then seed index. Output is byte-identical for a
	// given K, and never a worse II than Portfolio=1 (seed 0 always races).
	// Ignored for URACAM, which has no partition to vary. Values above 16
	// are clamped; 0 and 1 mean the sequential paper path.
	Portfolio int
	// Arena, when non-nil, supplies the partitioner's scratch arena so a
	// serving path can pool the cold-path allocations across requests. Only
	// the Portfolio ≤ 1 escalation uses it, for its one chain of
	// partitions; portfolio search acquires one pooled arena per seed. The
	// arena must not be shared with a concurrent ScheduleLoop call; it is
	// free again once ScheduleLoop returns.
	Arena *partition.Arena
}

// maxPortfolio caps the racer count: past this the marginal II benefit is
// noise while goroutine and arena cost keep growing.
const maxPortfolio = 16

func (o *Options) window() int {
	if o.IIWindow > 0 {
		return o.IIWindow
	}
	return 64
}

func (o *Options) portfolio() int {
	if o.Portfolio > maxPortfolio {
		return maxPortfolio
	}
	if o.Portfolio > 1 {
		return o.Portfolio
	}
	return 1
}

// Result is the outcome of scheduling one loop. Every field except the
// durations and Discarded is what the sequential §3.1 walk produces,
// however many cores the escalation used.
type Result struct {
	// Schedule is the final schedule (modulo or list).
	Schedule *schedule.Schedule
	// Assign is the cluster assignment actually used (nil for URACAM).
	Assign []int
	// MII is the lower bound the search started from.
	MII int
	// IIBus is the bus bound of the final partition (0 for URACAM).
	IIBus int
	// Partitions counts the partition computations the walk made up to
	// its end (≥ 1 for GP/Fixed; with list fallback, including the
	// repartition after the last failure, whose partition the fallback
	// uses).
	Partitions int
	// Attempts counts the II values the walk tried: the winning II minus
	// the MII plus one, or the whole window with list fallback.
	Attempts int
	// Discarded counts the attempts helper cores started above the winning
	// II, whose work was thrown away: with Attempts, the useful share of
	// the scheduling work. Zero on one core and with list fallback.
	Discarded int
	// ListFallback reports that modulo scheduling was abandoned.
	ListFallback bool
	// PortfolioSeed is the seed index of the winning portfolio racer (0
	// when Portfolio ≤ 1: the canonical start).
	PortfolioSeed int
	// Elapsed is the wall-clock scheduling time, the paper's Table 2 metric.
	Elapsed time.Duration

	// Phase busy times: MII computation; partitioning, summed over the
	// partitions the walk counts in Partitions; and scheduling, summed
	// over the attempts it counts in Attempts. Work that overlapped on
	// several cores is summed, so PartitionDur+ScheduleDur may exceed
	// Elapsed, and discarded work is left out. For portfolio search they
	// are the wall times of its parallel phases. They feed the serving
	// daemons' trace phases and the benchmark's per-layer ledger.
	MIIDur, PartitionDur, ScheduleDur time.Duration
	// RefineMoves totals refinement transformations across the partitions
	// counted in Partitions (all portfolio racers included).
	RefineMoves int64
	// Candidate-screening tallies summed over the same partitions; see
	// partition.Result.
	ScreenLowerBound, ScreenExact, ScreenFull int64
}

// addPartStats folds one partition computation's work counters into the
// result.
func (r *Result) addPartStats(p *partition.Result) {
	r.RefineMoves += int64(p.Moves)
	r.ScreenLowerBound += p.ScreenLowerBound
	r.ScreenExact += p.ScreenExact
	r.ScreenFull += p.ScreenFull
}

// IPC returns executed operations per cycle for the loop's profiled trip
// count, counting the loop's original operations (spill code and
// communications are overhead, not useful work).
func (r *Result) IPC(g *ddg.Graph) float64 {
	cyc := r.Schedule.Cycles(g.Niter)
	if cyc <= 0 {
		return 0
	}
	return float64(int64(g.N())*int64(g.Niter)) / float64(cyc)
}

// ScheduleLoop schedules one loop on machine m with the selected algorithm.
func ScheduleLoop(g *ddg.Graph, m *machine.Config, opts *Options) (*Result, error) {
	return ScheduleLoopContext(context.Background(), g, m, opts)
}

// ScheduleLoopContext is ScheduleLoop with cancellation. Every partition
// and scheduling attempt polls ctx without blocking (between refinement
// moves, coarsening levels and work-list steps), so a canceled or expired
// context stops the search within one such step and returns an error
// wrapping ctx's. It returns only after every helper goroutine of the
// escalation has exited.
func ScheduleLoopContext(ctx context.Context, g *ddg.Graph, m *machine.Config, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	res := &Result{MII: g.MII(m)}
	res.MIIDur = time.Since(start)

	if opts.portfolio() > 1 && opts.Algorithm != URACAM {
		return schedulePortfolio(ctx, g, m, opts, start, res)
	}
	switch opts.Algorithm {
	case GP, FixedPartition, URACAM:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
	if err := escalate(ctx, g, m, opts, res); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
