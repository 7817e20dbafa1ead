package dblp

import (
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
)

// TestParallelCompileMatchesSequentialDBLP builds the MV-index for the DBLP
// views — V1, V2, V3 individually and all together — once with the
// sequential reference compiler and once with 8 workers, and requires
// bitwise-identical index statistics and P0(¬W). This is the compile fan-out
// property test on the paper's actual workload shapes: V1's weighted union,
// V2's denial self-join, V3's deterministic-join view.
func TestParallelCompileMatchesSequentialDBLP(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]*core.MarkoView{
		"V1":  {d.V1},
		"V2":  {d.V2},
		"V3":  {d.V3},
		"all": {d.V1, d.V2, d.V3},
	}
	for name, views := range sets {
		t.Run(name, func(t *testing.T) {
			build := func(par int) *mvindex.Index {
				m, err := d.MVDB(views...)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := m.Translate(core.TranslateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mW, fW, _, err := tr.CompileW(obdd.CompileOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				tr.AttachOBDD(mW, fW)
				ix, err := mvindex.Build(tr)
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			seq := build(1)
			par := build(8)
			if a, b := seq.Size(), par.Size(); a != b {
				t.Errorf("size: sequential %d, parallel %d", a, b)
			}
			if a, b := seq.Width(), par.Width(); a != b {
				t.Errorf("width: sequential %d, parallel %d", a, b)
			}
			if a, b := seq.Blocks(), par.Blocks(); a != b {
				t.Errorf("blocks: sequential %d, parallel %d", a, b)
			}
			la, sa := seq.LogProbNotW()
			lb, sb := par.LogProbNotW()
			if la != lb || sa != sb {
				t.Errorf("LogProbNotW: (%v,%d) vs (%v,%d) — must be bitwise equal", la, sa, lb, sb)
			}
			// Answers must agree bitwise between the two indexes.
			for _, s := range d.Students[:3] {
				q := QueryAdvisorOfStudent(s)
				want, err := seq.Query(q, mvindex.IntersectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := par.Query(q, mvindex.IntersectOptions{CacheConscious: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("student %d: %d vs %d answers", s, len(got), len(want))
				}
				for i := range got {
					if got[i].Prob != want[i].Prob {
						t.Errorf("student %d answer %d: %v vs %v", s, i, got[i].Prob, want[i].Prob)
					}
				}
			}
		})
	}
}
