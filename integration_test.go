package mvdb_test

// End-to-end integration: the full DBLP pipeline exercised through the
// public facade only, cross-checking every evaluation route on the same
// queries — generation → views → translation → MV-index → persistence →
// conditioning — at a scale where the exact MLN semantics is still
// enumerable for spot checks.

import (
	"math"
	"testing"

	"mvdb"
)

func TestIntegrationDBLPPipeline(t *testing.T) {
	data, err := mvdb.GenerateDBLP(mvdb.DBLPConfig{NumAuthors: 240, Seed: 2026})
	if err != nil {
		t.Fatal(err)
	}
	m, err := data.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvdb.BuildIndex(tr)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Index answers equal the baseline OBDD and DPLL answers on every
	// advisor query.
	ev := mvdb.NewEvaluator(tr)
	queries := []string{
		"Q(a) :- Advisor(9,a)",
		"Q(aid) :- Student(aid,year), Advisor(aid,a), Author(a,n), n like '%Madden%'",
		"Q(inst) :- Affiliation(aid,inst)",
	}
	for _, src := range queries {
		q, err := mvdb.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		viaIndex, err := ix.Query(q, mvdb.IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		viaOBDD, err := ev.Query(q, mvdb.MethodOBDD)
		if err != nil {
			t.Fatal(err)
		}
		viaDPLL, err := ev.Query(q, mvdb.MethodDPLL)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaIndex) != len(viaOBDD) || len(viaIndex) != len(viaDPLL) {
			t.Fatalf("%q: row counts differ: %d / %d / %d", src, len(viaIndex), len(viaOBDD), len(viaDPLL))
		}
		for i := range viaIndex {
			if math.Abs(viaIndex[i].Prob-viaOBDD[i].Prob) > 1e-9 ||
				math.Abs(viaIndex[i].Prob-viaDPLL[i].Prob) > 1e-9 {
				t.Errorf("%q row %v: index %v obdd %v dpll %v", src,
					viaIndex[i].Head, viaIndex[i].Prob, viaOBDD[i].Prob, viaDPLL[i].Prob)
			}
			if viaIndex[i].Prob < -1e-9 || viaIndex[i].Prob > 1+1e-9 {
				t.Errorf("%q row %v: probability %v outside [0,1]", src, viaIndex[i].Head, viaIndex[i].Prob)
			}
		}
	}

	// 2. Persistence round trip preserves every answer.
	path := t.TempDir() + "/dblp.mvx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := mvdb.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := mvdb.ParseQuery(queries[0])
	a1, err := ix.Query(q, mvdb.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := back.Query(q, mvdb.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if math.Abs(a1[i].Prob-a2[i].Prob) > 1e-12 {
			t.Errorf("persistence changed answer %v: %v vs %v", a1[i].Head, a1[i].Prob, a2[i].Prob)
		}
	}

	// 3. Marginals: the one-pass sweep matches per-tuple queries and the
	// views measurably shift at least some advisor edges.
	marg, err := ix.AllTupleMarginals()
	if err != nil {
		t.Fatal(err)
	}
	adv := tr.DB.Relation("Advisor")
	shifted := 0
	for i, tup := range adv.Tuples {
		if i >= 20 {
			break
		}
		single, err := ix.TupleMarginal(tup.Var, mvdb.IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single-marg[tup.Var]) > 1e-9 {
			t.Errorf("var %d: sweep %v single %v", tup.Var, marg[tup.Var], single)
		}
		if math.Abs(single-tup.Prob()) > 1e-6 {
			shifted++
		}
	}
	if shifted == 0 {
		t.Error("no advisor marginal shifted by the views")
	}

	// 4. Conditioning: evidence on one advisor edge of a two-candidate
	// student kills the rival (denial view V2).
	counts := map[int64][]int{}
	for _, tup := range adv.Tuples {
		counts[tup.Vals[0].Int] = append(counts[tup.Vals[0].Int], tup.Var)
	}
	for s, vars := range counts {
		if len(vars) < 2 {
			continue
		}
		qq, _ := mvdb.ParseQuery("Q(a) :- Advisor(" + mvdb.Int(s).String() + ",a)")
		rel, tup, err := tr.DB.VarTuple(vars[1])
		if err != nil || rel != "Advisor" {
			t.Fatal(err, rel)
		}
		bound, _ := qq.Bind([]mvdb.Value{tup.Vals[1]})
		p, err := ev.ProbGivenTuples(bound, mvdb.Evidence{vars[0]: true}, mvdb.MethodDPLL)
		if err != nil {
			t.Fatal(err)
		}
		if p > 1e-9 {
			t.Errorf("student %v: rival advisor has probability %v despite evidence + denial view", s, p)
		}
		break
	}

	// 5. The restored index agrees on the cache-conscious layout too.
	a3, err := back.Query(q, mvdb.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if math.Abs(a1[i].Prob-a3[i].Prob) > 1e-12 {
			t.Errorf("restored cache-conscious answer %v: %v vs %v", a3[i].Head, a3[i].Prob, a1[i].Prob)
		}
	}
}

func TestIntegrationExactAtMicroScale(t *testing.T) {
	// The public-facade pipeline against exhaustive enumeration.
	data, err := mvdb.GenerateDBLP(mvdb.DBLPConfig{NumAuthors: 4, AdvisorEvery: 2, Seed: 7, SecondAdvisorPct: 100})
	if err != nil {
		t.Fatal(err)
	}
	if data.DB.NumVars() > 20 {
		t.Skipf("%d vars: enumeration infeasible", data.DB.NumVars())
	}
	m, err := data.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvdb.BuildIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range data.Students {
		q, _ := mvdb.ParseQuery("Q(a) :- Advisor(" + mvdb.Int(s).String() + ",a)")
		rows, err := ix.Query(q, mvdb.IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			b, _ := q.Bind(r.Head)
			want, err := mvdb.ProbExact(m, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Prob-want) > 1e-8 {
				t.Errorf("student %d advisor %v: %v want %v", s, r.Head, r.Prob, want)
			}
		}
	}
}
