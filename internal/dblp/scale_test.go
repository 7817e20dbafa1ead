package dblp

import (
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
)

func TestScaleTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("scale timing test skipped in short mode")
	}
	for _, n := range []int{2000, 10000} {
		t0 := time.Now()
		d, err := Generate(Config{NumAuthors: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tGen := time.Since(t0)
		m, _ := d.MVDB()
		t0 = time.Now()
		tr, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tTr := time.Since(t0)
		t0 = time.Now()
		ix, err := mvindex.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		tIx := time.Since(t0)
		t0 = time.Now()
		q := QueryAdvisorOfStudent(d.Students[len(d.Students)/2])
		if _, err := ix.Query(q, mvindex.IntersectOptions{}); err != nil {
			t.Fatal(err)
		}
		tQ := time.Since(t0)
		t.Logf("n=%d vars=%d gen=%v translate=%v index(size=%d,blocks=%d)=%v query=%v",
			n, d.DB.NumVars(), tGen, tTr, ix.Size(), ix.Blocks(), tIx, tQ)
	}
}
