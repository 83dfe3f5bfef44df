package main

import "testing"

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileAllowsP90Of162(t *testing.T) {
	got, err := percentile(ramp(162), 0.90)
	if err != nil {
		t.Fatalf("p90 of 162 samples refused: %v", err)
	}
	// Nearest rank ceil(0.9·162) = 146 leaves 16 samples beyond it.
	if got != 146 {
		t.Fatalf("p90 of 1..162 = %v, want 146", got)
	}
}

func TestPercentileRefusesP99BelowThousand(t *testing.T) {
	for _, n := range []int{162, 500, 999} {
		if v, err := percentile(ramp(n), 0.99); err == nil {
			t.Errorf("p99 of %d samples = %v, want a refusal", n, v)
		}
	}
	got, err := percentile(ramp(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestPercentileRefusesEmpty(t *testing.T) {
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 9}, 2},
		{[]float64{1, 2, 4, 9}, 3},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
