package partition

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestPartitionContext pins the cancellable entry point: with a live
// context it returns exactly Partition's result, and a done context — set
// before the call or expiring during it — yields ctx's error and no
// result, without finishing the run.
func TestPartitionContext(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 2)
	var big *workload.Loop
	for _, bm := range workload.SPECfp95() {
		for _, l := range bm.Loops {
			if big == nil || l.G.N() > big.G.N() {
				big = l
			}
		}
	}
	g := big.G
	ii := g.MII(m)
	want := New(g, m, nil).Partition(ii)
	got, err := New(g, m, nil).PartitionContext(context.Background(), ii)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PartitionContext with a live context = %+v, %v; want Partition's %+v", got, err, want)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := New(g, m, nil).PartitionContext(canceled, ii); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("PartitionContext on a canceled context = %+v, %v; want nil, context.Canceled", res, err)
	}

	// A deadline that expires mid-run: the run stops at the next poll,
	// well before a full partition's time.
	t0 := time.Now()
	New(g, m, nil).Partition(ii)
	full := time.Since(t0)
	ctx, stop := context.WithTimeout(context.Background(), full/10)
	defer stop()
	t0 = time.Now()
	res, err := New(g, m, nil).PartitionContext(ctx, ii)
	if took := time.Since(t0); res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PartitionContext under a %v deadline (full run %v) = %+v, %v after %v; want nil, context.DeadlineExceeded",
			full/10, full, res, err, took)
	}
}
