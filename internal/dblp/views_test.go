package dblp

import (
	"fmt"
	"reflect"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
)

// TestViewWeightTables checks the generator's bookkeeping-built V1 and V3
// WeightTables against tables read off the materialized views: evaluate each
// view body over the generated database with a closure weight computed from
// the co-pub counts, and record every materialized head. The two must be
// identical — same heads, same weights, same default — so skipping the
// materialization at generation time changes nothing downstream.
func TestViewWeightTables(t *testing.T) {
	for _, n := range []int{300, 1000, 4000} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, zipf := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/zipf=%v", n, seed, zipf), func(t *testing.T) {
					d, err := Generate(Config{NumAuthors: n, Seed: seed, ZipfAdvisors: zipf})
					if err != nil {
						t.Fatal(err)
					}
					v1 := func(head []engine.Value) float64 {
						return float64(d.copubStudy[[2]int64{head[0].Int, head[1].Int}]) / 2
					}
					v3 := func(head []engine.Value) float64 {
						return float64(d.copubV3[pairKey(head[0].Int, head[1].Int)]) / 5
					}
					for _, c := range []struct {
						view *core.MarkoView
						w    core.WeightFn
					}{{d.V1, v1}, {d.V3, v3}} {
						want := materializedTable(t, d.DB, c.view, c.w)
						if len(want.ByHead) == 0 {
							t.Errorf("%s: materialized no heads", c.view.Name)
						}
						if !reflect.DeepEqual(c.view.Weights, want) {
							t.Errorf("%s: bookkeeping table (%d heads) differs from the materialized one (%d heads)",
								c.view.Name, len(c.view.Weights.ByHead), len(want.ByHead))
						}
					}
				})
			}
		}
	}
}

// materializedTable evaluates the view's body with closure weights w and
// freezes the result into a WeightTable with default 1.
func materializedTable(t *testing.T, db *engine.Database, v *core.MarkoView, w core.WeightFn) *core.WeightTable {
	t.Helper()
	m := core.New(db)
	if err := m.AddView(&core.MarkoView{Name: v.Name, Head: v.Head, Def: v.Def, Weight: w}); err != nil {
		t.Fatal(err)
	}
	vts, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	wt := &core.WeightTable{Default: 1}
	for _, vt := range vts {
		wt.Set(vt.Head, vt.Weight)
	}
	return wt
}
