package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkExactMatching14 goes through MaxWeightMatching's pooled
// matcher, so allocs/op counts only the returned Matching once the memo
// has grown.
func BenchmarkExactMatching14(b *testing.B) {
	r := rand.New(rand.NewSource(71))
	g := randomGraph(r, 14, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(g)
	}
}

func BenchmarkGreedyMatching200(b *testing.B) {
	r := rand.New(rand.NewSource(72))
	g := randomGraph(r, 200, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyMatching(g)
	}
}

func BenchmarkMaxWeightMatching200(b *testing.B) {
	r := rand.New(rand.NewSource(73))
	g := randomGraph(r, 200, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(g)
	}
}
