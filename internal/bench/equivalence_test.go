package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mvdb/internal/obdd"
)

// atProcs runs f with GOMAXPROCS set to n — the width of the compile's
// block fan-out — and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestDBLPViewEquivalence pins the kernel rewrite to the compiler's spec:
// for each MarkoView and at paper-scale domains, the compile on four workers
// must produce an OBDD NodeID-for-NodeID identical to the sequential
// reference (GOMAXPROCS 1),
// with bitwise-equal probability. Combined with the quick_test.go property
// tests (dense memos vs map references) this is the old-vs-new equivalence
// evidence for the table/cache/memo replacement: the sequential path is the
// unchanged recursion order, so any divergence introduced by the new unique
// table, apply cache, or dense annotations would break structural identity.
func TestDBLPViewEquivalence(t *testing.T) {
	domains := []int{1000, 4000, 8000}
	if testing.Short() {
		domains = []int{1000}
	}
	for _, views := range []string{"1", "2", "3"} {
		for _, n := range domains {
			t.Run(fmt.Sprintf("V%s/domain=%d", views, n), func(t *testing.T) {
				_, _, tr, err := pipeline(n, 1, views)
				if err != nil {
					t.Fatal(err)
				}
				var ms, mp *obdd.Manager
				var fs, fp obdd.NodeID
				var ss, sp obdd.CompileStats
				atProcs(1, func() { ms, fs, ss, err = tr.CompileW(obdd.CompileOptions{}) })
				if err != nil {
					t.Fatal(err)
				}
				atProcs(4, func() { mp, fp, sp, err = tr.CompileW(obdd.CompileOptions{}) })
				if err != nil {
					t.Fatal(err)
				}
				if !obdd.StructEqual(ms, fs, mp, fp) {
					t.Fatalf("parallel OBDD differs structurally from sequential")
				}
				if ss != sp {
					t.Errorf("stats differ: sequential %+v, parallel %+v", ss, sp)
				}
				// Bit-pattern comparison: V1's negative view weights drive the
				// probability to NaN at large domains on both legs, and NaN
				// never compares equal to itself.
				probs := tr.DB.Probs()
				a, b := ms.Prob(fs, probs), mp.Prob(fp, probs)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("prob: sequential %v, parallel %v (must be bitwise equal)", a, b)
				}
			})
		}
	}
}
