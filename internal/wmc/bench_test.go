package wmc

import (
	"math/rand"
	"testing"

	"mvdb/internal/lineage"
)

func benchDNF(terms, nv int) (lineage.DNF, []float64) {
	rng := rand.New(rand.NewSource(1))
	d := make(lineage.DNF, terms)
	for i := range d {
		t := make([]int, 3)
		for j := range t {
			t[j] = 1 + rng.Intn(nv)
		}
		d[i] = lineage.Term(t...)
	}
	probs := make([]float64, nv+1)
	for i := 1; i <= nv; i++ {
		probs[i] = rng.Float64()
	}
	return d, probs
}

// BenchmarkDPLLProb measures exact weighted model counting on a DNF with
// moderate sharing.
func BenchmarkDPLLProb(b *testing.B) {
	d, probs := benchDNF(40, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prob(d, probs)
	}
}
