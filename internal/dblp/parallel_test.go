package dblp

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
)

// atProcs runs f with GOMAXPROCS set to n — the width of the compile's
// block fan-out — and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestIndexBuildRacesParallelCompile compiles W with four workers on a fresh
// translation — whose relations have no hash index yet, so the workers build
// them lazily — while other goroutines probe every column of the same
// relations. Under -race this checks the lock-free index reads against the
// builds; the probes must see exactly the positions a scan finds, and the
// OBDD must match a sequential compile's.
func TestIndexBuildRacesParallelCompile(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	translate := func() *core.Translation {
		m, err := d.MVDB()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var mSeq *obdd.Manager
	var fSeq obdd.NodeID
	atProcs(1, func() { mSeq, fSeq, _, err = translate().CompileW(obdd.CompileOptions{}) })
	if err != nil {
		t.Fatal(err)
	}

	tr := translate()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range tr.DB.Relations() {
				r := tr.DB.Relation(name)
				for col := range r.Cols {
					for k := g; k < r.Len(); k += 97 {
						v := r.Tuples[k].Vals[col]
						var want []int
						for pos, tup := range r.Tuples {
							if tup.Vals[col].Equal(v) {
								want = append(want, pos)
							}
						}
						m := r.Match(col, v)
						var got []int
						for p := m.First(); p >= 0; p = m.Next(p) {
							got = append(got, p)
						}
						if !slices.Equal(got, want) || m.Len() != len(want) {
							t.Errorf("%s col %d value %v: got %v want %v", name, col, v, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	var mPar *obdd.Manager
	var fPar obdd.NodeID
	atProcs(4, func() { mPar, fPar, _, err = tr.CompileW(obdd.CompileOptions{}) })
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mSeq.Size(fSeq), mPar.Size(fPar); a != b {
		t.Errorf("W size: sequential %d, parallel %d", a, b)
	}
}

// TestParallelCompileMatchesSequentialDBLP builds the MV-index for the DBLP
// views — V1, V2, V3 individually and all together — once with the
// sequential reference compiler (GOMAXPROCS 1) and once with 4 workers, and
// requires
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
			build := func(procs int) *mvindex.Index {
				m, err := d.MVDB(views...)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := m.Translate(core.TranslateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var ix *mvindex.Index
				atProcs(procs, func() { ix, err = mvindex.Build(tr) })
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			seq := build(1)
			par := build(4)
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
				got, err := par.Query(q, mvindex.IntersectOptions{})
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
