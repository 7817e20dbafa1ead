package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

func testServer(t *testing.T) (*Server, *core.Translation) {
	t.Helper()
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 1.0, engine.Int(2), engine.Int(10))
	m := core.New(db)
	v, err := core.ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return NewWith(ix, Config{}), tr
}

func do(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && strings.Contains(rec.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad json %q: %v", rec.Body.String(), err)
		}
	}
	return rec, out
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, out := do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d body %s", rec.Code, rec.Body)
	}
	answers := out["answers"].([]any)
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	// Denial view makes the candidates exclusive; worlds weigh 1, 2, 2, 0,
	// so each candidate has probability 2/5.
	for _, a := range answers {
		p := a.(map[string]any)["prob"].(float64)
		if math.Abs(p-0.4) > 1e-9 {
			t.Errorf("prob = %v want 0.4", p)
		}
	}
	// The retired per-request algorithm switch is an unknown field now: an
	// old client that still sends it gets the same 200 and the same answers.
	rec, old := do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)", "cache_conscious": false}`)
	if rec.Code != http.StatusOK || !reflect.DeepEqual(old["answers"], out["answers"]) {
		t.Errorf("with cache_conscious: code = %d answers %v, want 200 and %v", rec.Code, old["answers"], out["answers"])
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := do(t, s, "POST", "/query", `not json`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad body: code = %d", rec.Code)
	}
	rec, _ = do(t, s, "POST", "/query", `{"query": "syntax error("}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad query: code = %d", rec.Code)
	}
	rec, _ = do(t, s, "GET", "/query", "")
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("GET /query: code = %d", rec.Code)
	}
}

// TestBadInputIs400 pins the input-error contract: malformed or unsafe query
// input — unknown relations, wrong arity, internal NV relations — is the
// client's fault and must come back as 400 with a JSON error body, never as
// 500 or 422 (those are reserved for evaluation failures).
func TestBadInputIs400(t *testing.T) {
	// A soft (non-denial) view so the translation has a real NV relation.
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(11))
	m := core.New(db)
	v, err := core.ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(ix, Config{})
	if len(tr.NVRelations) == 0 {
		t.Fatal("soft view produced no NV relation")
	}
	nv := tr.NVRelations[0]
	cases := []struct {
		name, body string
		path       string
	}{
		{"unknown relation", `{"query": "Q(x) :- Nope(x)"}`, "/query"},
		{"wrong arity", `{"query": "Q(x) :- Adv(x)"}`, "/query"},
		{"internal NV relation", `{"query": "Q(x) :- ` + nv + `(x,y,z)"}`, "/query"},
		{"explain unknown relation", `{"query": "Q() :- Nope(x)"}`, "/explain"},
	}
	for _, c := range cases {
		rec, out := do(t, s, "POST", c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d want 400 (body %s)", c.name, rec.Code, rec.Body)
		}
		if msg, ok := out["error"].(string); !ok || msg == "" {
			t.Errorf("%s: missing JSON error body: %s", c.name, rec.Body)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, out := do(t, s, "POST", "/explain", `{"query": "Q() :- Adv(1,a)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d body %s", rec.Code, rec.Body)
	}
	if out["prob"].(float64) <= 0 {
		t.Errorf("prob = %v", out["prob"])
	}
	if out["summary"].(string) == "" {
		t.Error("empty summary")
	}
}

func TestMarginalEndpoint(t *testing.T) {
	s, tr := testServer(t)
	rec, out := do(t, s, "GET", "/marginal?var=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d body %s", rec.Code, rec.Body)
	}
	if out["relation"].(string) != "Adv" {
		t.Errorf("relation = %v", out["relation"])
	}
	p := out["marginal"].(float64)
	// Cross-check against the source semantics.
	want, err := baseline.New(tr).ProbBoolean(mustUCQ("Q() :- Adv(1,10)"), baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("marginal = %v want %v", p, want)
	}
	rec, _ = do(t, s, "GET", "/marginal?var=zzz", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad var: code = %d", rec.Code)
	}
	rec, _ = do(t, s, "GET", "/marginal?var=999", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing var: code = %d", rec.Code)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, _ := testServer(t)
	rec, out := do(t, s, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if out["index_nodes"].(float64) <= 0 || out["tuple_vars"].(float64) != 3 {
		t.Errorf("stats = %v", out)
	}
	rec, _ = do(t, s, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
}

// TestStatsDerivedRatios pins the derived-ratio fields of /stats: the
// apply-cache hit rate and the unique-table load factor must be present and
// in [0, 1] (load strictly positive — the manager always holds nodes), and a
// sifted index must surface its reorder provenance.
func TestStatsDerivedRatios(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	for s := int64(1); s <= 8; s++ {
		db.MustInsert("Adv", 2.0, engine.Int(s), engine.Int(10+s))
		db.MustInsert("Adv", 1.5, engine.Int(s), engine.Int(20+s))
	}
	m := core.New(db)
	v, err := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	s := NewWith(ix, Config{})

	// Run a query twice so the answer cache and the query managers' apply
	// caches see traffic.
	for i := 0; i < 2; i++ {
		if rec, _ := do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)"}`); rec.Code != http.StatusOK {
			t.Fatalf("query %d: code = %d", i, rec.Code)
		}
	}
	rec, out := do(t, s, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	cache, _ := out["cache"].(map[string]any)
	for _, gone := range []string{"lineage", "shared_apply_hits", "shared_apply_misses"} {
		if _, ok := cache[gone]; ok || cache == nil {
			t.Fatalf("/stats cache = %v, want an answers block and no %s", out["cache"], gone)
		}
	}
	for _, field := range []string{"query_apply_hit_rate", "answer_cache_hit_rate"} {
		v, ok := out[field].(float64)
		if !ok {
			t.Fatalf("/stats missing %s: %v", field, out)
		}
		if v < 0 || v > 1 {
			t.Fatalf("%s = %v out of [0,1]", field, v)
		}
	}
	ri, ok := out["reorder"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing reorder block on a sifted index: %v", out)
	}
	if ri["mode"] != "converge" || ri["provenance"] != "sifted" {
		t.Fatalf("reorder block = %v", ri)
	}
	if ri["nodes_before"].(float64) < ri["nodes_after"].(float64) {
		t.Fatalf("reorder grew the index: %v", ri)
	}
	if _, ok := ri["block_provenance"].(map[string]any); !ok {
		t.Fatalf("reorder block lacks block_provenance: %v", ri)
	}

	// An unsifted index must NOT have the reorder block.
	s2, _ := testServer(t)
	_, out2 := do(t, s2, "GET", "/stats", "")
	if _, present := out2["reorder"]; present {
		t.Fatalf("unsifted index reports reorder: %v", out2["reorder"])
	}
}

func mustUCQ(src string) ucq.UCQ {
	return ucq.MustParse(src).UCQ
}

// TestConcurrentQueryHammer fires 32 goroutines of mixed HTTP traffic —
// queries, explains, marginals, stats — at one server sharing one index.
// Every query response must equal the single-threaded reference; run under
// -race this exercises the RWMutex read path and the index's frozen-state
// contract end to end.
func TestConcurrentQueryHammer(t *testing.T) {
	s, _ := testServer(t)
	ref, refOut := do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)"}`)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference query: code = %d", ref.Code)
	}
	wantAnswers, _ := json.Marshal(refOut["answers"])

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*8)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"query": "Q(a) :- Adv(1,a)"}`))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("query code %d", rec.Code)
					continue
				}
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					errs <- "bad json: " + err.Error()
					continue
				}
				got, _ := json.Marshal(out["answers"])
				if string(got) != string(wantAnswers) {
					errs <- "answers diverged: " + string(got)
				}
				for _, p := range []string{"/stats", "/marginal?var=1", "/healthz"} {
					req := httptest.NewRequest("GET", p, nil)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						errs <- p + " failed"
					}
				}
				req = httptest.NewRequest("POST", "/explain", strings.NewReader(`{"query": "Q() :- Adv(1,a)"}`))
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- "explain failed"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCacheServesRepeatedQueries: the server installs the cross-query cache
// by default — the same query text a second time must be a cache hit with
// identical answers, and /stats must expose the counters. The cache keys on
// the text, so an alpha-renamed spelling is a miss, with the same answers.
func TestCacheServesRepeatedQueries(t *testing.T) {
	s, _ := testServer(t)
	answersOf := func(body string) string {
		t.Helper()
		rec, out := do(t, s, "POST", "/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
		a, _ := json.Marshal(out["answers"])
		return string(a)
	}
	cacheStats := func() map[string]any {
		t.Helper()
		rec, stats := do(t, s, "GET", "/stats", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/stats: %d", rec.Code)
		}
		cache, ok := stats["cache"].(map[string]any)
		if !ok {
			t.Fatalf("no cache section in /stats: %v", stats)
		}
		if cache["enabled"] != true {
			t.Fatalf("cache not enabled by default: %v", cache)
		}
		return cache["answers"].(map[string]any)
	}
	a1 := answersOf(`{"query": "Q(a) :- Adv(1,a)"}`)
	a2 := answersOf(`{"query": "Q(a) :- Adv(1,a)"}`)
	if a1 != a2 {
		t.Fatalf("cached answers diverged:\n%s\n%s", a1, a2)
	}
	if st := cacheStats(); st["hits"].(float64) != 1 || st["misses"].(float64) != 1 {
		t.Fatalf("want the first query to miss and the second to hit: %v", st)
	}
	// A renamed spelling of the same query: a miss of its own.
	a3 := answersOf(`{"query": "Other(x) :- Adv(1,x)"}`)
	if a3 != a1 {
		t.Fatalf("renamed spelling answered differently:\n%s\n%s", a1, a3)
	}
	if st := cacheStats(); st["hits"].(float64) != 1 || st["misses"].(float64) != 2 {
		t.Fatalf("want the renamed spelling to miss: %v", st)
	}
}

// TestCacheDisabledByConfig: Config.Cache.Disable serves uncached.
func TestCacheDisabledByConfig(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(10))
	m := core.New(db)
	v, err := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(ix, Config{Cache: qcache.Options{Disable: true}})
	do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)"}`)
	do(t, s, "POST", "/query", `{"query": "Q(a) :- Adv(1,a)"}`)
	_, stats := do(t, s, "GET", "/stats", "")
	cache := stats["cache"].(map[string]any)
	if cache["enabled"] != false {
		t.Fatalf("cache should be disabled: %v", cache)
	}
}
