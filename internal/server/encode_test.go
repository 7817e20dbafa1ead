package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

// refResponse is the /query body as encoding/json writes it.
type refResponse struct {
	Answers []refAnswer `json:"answers"`
	Millis  float64     `json:"millis"`
}

type refAnswer struct {
	Head []any   `json:"head"`
	Prob float64 `json:"prob"`
}

// decodedResponse reads a /query body back, keeping each head value's bytes.
type decodedResponse struct {
	Answers []struct {
		Head []json.RawMessage `json:"head"`
		Prob float64           `json:"prob"`
	} `json:"answers"`
	Millis float64 `json:"millis"`
}

func headValues(vals []engine.Value) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		if v.IsStr {
			out[i] = v.Str
		} else {
			out[i] = v.Int
		}
	}
	return out
}

// checkBody decodes a /query body and requires it to carry exactly rows:
// each head value spelt as encoding/json spells it, each probability with
// the same bits.
func checkBody(t *testing.T, body []byte, rows []core.Answer) {
	t.Helper()
	var got decodedResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body %q does not decode: %v", body, err)
	}
	if len(got.Answers) != len(rows) {
		t.Fatalf("body %q: %d answers, want %d", body, len(got.Answers), len(rows))
	}
	for i, a := range rows {
		g := got.Answers[i]
		if math.Float64bits(g.Prob) != math.Float64bits(a.Prob) {
			t.Fatalf("answer %d: prob %v (bits %x), want %v (bits %x)",
				i, g.Prob, math.Float64bits(g.Prob), a.Prob, math.Float64bits(a.Prob))
		}
		if len(g.Head) != len(a.Head) {
			t.Fatalf("answer %d: head %s, want %v", i, g.Head, a.Head)
		}
		for j, v := range headValues(a.Head) {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Head[j], want) {
				t.Fatalf("answer %d head %d: %s, encoding/json writes %s", i, j, g.Head[j], want)
			}
		}
	}
}

// TestAppendAnswersMatchesEncodingJSON: the hand encoder of the /query body
// writes what encoding/json writes — byte for byte in every head value, and
// the same float64 bits in every probability — on the edge cases and on
// random answers.
func TestAppendAnswersMatchesEncodingJSON(t *testing.T) {
	strs := []string{
		"", "plain", `say "hi"`, `back\slash`, "tab\tnew\nline\rcr\bbs\fff",
		"\x00\x01\x1f\x7f", "\u2028 and \u2029", "<script>&amp;</script>",
		"bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate", "héllo wörld ✓ 😀",
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 104}
	probs := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 0.1, 1.0 / 3, 1, 1e21, 1e20, -0.25, -1e-300, math.MaxFloat64}
	var rows []core.Answer
	for i, p := range probs {
		rows = append(rows, core.Answer{
			Head: []engine.Value{engine.Int(ints[i%len(ints)]), engine.Str(strs[i%len(strs)])},
			Prob: p,
		})
	}
	for _, s := range strs {
		rows = append(rows, core.Answer{Head: []engine.Value{engine.Str(s)}, Prob: 0.5})
	}
	for _, n := range ints {
		rows = append(rows, core.Answer{Head: []engine.Value{engine.Int(n)}, Prob: 0.5})
	}
	rng := rand.New(rand.NewSource(41))
	alphabet := []byte("ab \"\\<>&\t\n\x00\x1f\x7f\xe2\x80\xa8\xa9\xc3\xff")
	for i := 0; i < 500; i++ {
		p := math.Float64frombits(rng.Uint64())
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = rng.Float64()
		}
		s := make([]byte, rng.Intn(12))
		for k := range s {
			s[k] = alphabet[rng.Intn(len(alphabet))]
		}
		rows = append(rows, core.Answer{
			Head: []engine.Value{engine.Str(string(s)), engine.Int(int64(rng.Uint64()))},
			Prob: p,
		})
	}
	body, err := appendAnswers(nil, rows, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	checkBody(t, body, rows)
	if bytes.Count(body, []byte("\n")) != 1 || body[len(body)-1] != '\n' {
		t.Fatalf("body is not one line: %q", body)
	}
	// Strings are escaped byte for byte as encoding/json escapes them.
	for _, a := range rows {
		for _, v := range a.Head {
			if !v.IsStr {
				continue
			}
			want, _ := json.Marshal(v.Str)
			if got := appendString(nil, v.Str); !bytes.Equal(got, want) {
				t.Fatalf("appendString(%q) = %s, encoding/json writes %s", v.Str, got, want)
			}
		}
	}
	// Without numbers that the two spell differently, the bodies are equal.
	plain := []core.Answer{{Head: headOf(104, "x<y>\u2028"), Prob: 0.5}, {Head: headOf(-7), Prob: 0.25}}
	ref := refResponse{Millis: 1.5}
	for _, a := range plain {
		ref.Answers = append(ref.Answers, refAnswer{Head: headValues(a.Head), Prob: a.Prob})
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendAnswers(nil, plain, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("hand encoder:\n%s\nencoding/json:\n%s", got, want)
	}
	// An empty answer set is an empty array, not null.
	if got, _ := appendAnswers(nil, nil, 0); !bytes.HasPrefix(got, []byte(`{"answers":[],`)) {
		t.Fatalf("empty answer set: %s", got)
	}
}

func headOf(vals ...any) []engine.Value {
	out := make([]engine.Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = engine.Int(int64(x))
		case string:
			out[i] = engine.Str(x)
		}
	}
	return out
}

// TestUnencodableResponseIs500: a response that cannot be encoded (a NaN or
// infinite number) answers 500 "encode", not a 200 with an empty body.
func TestUnencodableResponseIs500(t *testing.T) {
	var logged bytes.Buffer
	s, _ := testServerWith(t, Config{Logger: log.New(&logged, "", 0)})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"marginal": math.NaN()})
	checkEncodeFailure(t, "writeJSON", rec)
	if !strings.Contains(logged.String(), "writing response") {
		t.Fatalf("encode failure not logged: %q", logged.String())
	}
}

// TestQueryEncoderRejectsNonFinite: the /query encoder fails on a NaN or
// infinite probability as encoding/json does, instead of writing NaN.
func TestQueryEncoderRejectsNonFinite(t *testing.T) {
	s, _ := testServerWith(t, Config{Logger: log.New(&bytes.Buffer{}, "", 0)})
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		s.writeAnswers(rec, []core.Answer{{Head: headOf(1), Prob: 0.5}, {Head: headOf(2), Prob: p}}, 0.1)
		checkEncodeFailure(t, fmt.Sprintf("writeAnswers(prob %v)", p), rec)
	}
}

func checkEncodeFailure(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("%s: code %d body %q, want 500", what, rec.Code, rec.Body)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["reason"] != "encode" || body["error"] == "" {
		t.Fatalf("%s: body %q, want an error with reason encode", what, rec.Body)
	}
}

// TestQueryBodyIsCompact: a /query body is one line of compact JSON, with
// its Content-Length set, and the field order answers, millis.
func TestQueryBodyIsCompact(t *testing.T) {
	s, _ := testServer(t)
	for i := 0; i < 2; i++ { // a miss, then a hit
		rec, _ := do(t, s, "POST", "/query", `{"query": "Q(s, a) :- Adv(s, a)"}`)
		body := rec.Body.String()
		if rec.Code != http.StatusOK || strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") ||
			strings.Contains(body, " ") || !strings.HasPrefix(body, `{"answers":[{"head":[`) ||
			!strings.Contains(body, `],"millis":`) {
			t.Fatalf("body %q (code %d) is not one compact line", body, rec.Code)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
		}
	}
}

// TestBadQueryIs400EveryRepeat: a query that fails to parse or to validate
// answers 400 "bad query" on every repeat (a failure is never cached), and
// never enters the answer cache.
func TestBadQueryIs400EveryRepeat(t *testing.T) {
	ix, err := buildLiveIndex() // a soft view, so there is an NV relation
	if err != nil {
		t.Fatal(err)
	}
	s, tr := New(ix), ix.Translation()
	for _, text := range []string{
		"Q(a) :- Adv(1,a",
		"Q(a) :- Nope(1,a)",
		"Q(a) :- Adv(1)",
		"Q() :- " + tr.NVRelations[0] + "(a)",
	} {
		for rep := 0; rep < 3; rep++ {
			rec, out := do(t, s, "POST", "/query", fmt.Sprintf(`{"query": %q}`, text))
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(fmt.Sprint(out["error"]), "bad query: ") {
				t.Fatalf("%q (repeat %d): %d %s", text, rep, rec.Code, rec.Body)
			}
		}
	}
	if st := s.ix.CacheStats().Answers; st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("a rejected query was cached: %+v", st)
	}
}

// TestTrailingBodyDataIs400: a request body must be one JSON value — a
// second value or junk after it answers 400 on /query, /update and
// /reweight, and nothing is applied; trailing whitespace is fine.
func TestTrailingBodyDataIs400(t *testing.T) {
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(t.TempDir(), "wal")})
	defer l.Close()
	before := queryProb(t, s, boolQ)
	for _, c := range []struct{ path, body string }{
		{"/query", `{"query": "Q(a) :- Adv(1,a)"}{"query":"X"}`},
		{"/query", `{"query": "Q(a) :- Adv(1,a)"} trailing junk`},
		{"/query", `{"query": "Q(a) :- Adv(1,a)"}}`},
		{"/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]} junk`},
		{"/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}{"mutations": []}`},
		{"/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 0.25} junk`},
		{"/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 0.25}[]`},
	} {
		rec, out := do(t, s, "POST", c.path, c.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "after the JSON value") {
			t.Fatalf("%s %s: %d %s, want 400", c.path, c.body, rec.Code, rec.Body)
		}
	}
	if after := queryProb(t, s, boolQ); after != before {
		t.Fatalf("a rejected body changed the index: P = %v, was %v", after, before)
	}
	if rec, _ := do(t, s, "POST", "/query", "{\"query\": \"Q(a) :- Adv(1,a)\"} \n\t "); rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %s", rec.Code, rec.Body)
	}
}

// FuzzQueryBody drives arbitrary /query bodies through the handler: it must
// never panic, must answer with a status of the documented ladder, and every
// 200 body must decode with encoding/json to the answers Index.Query gives
// for the same text.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"query": "Q(a) :- Adv(1,a)"}`,
		`{"query": "Q(s, a) :- Adv(s, a)"}`,
		`{"query": "Other(x) :- Adv(1,x)"}`,
		`{"query": "Q(a, n) :- Adv(s, a), Name(a, n), n like '%<b>%'"}`,
		`{"query": "Q(n) :- Name(a, n)"}`,
		`{"query": "Q() :- Adv(1,a), not Name(a, n)"}`,
		`{"query": "Q(a) :- Adv(1,a)"}{"query":"X"}`,
		`{"query": "Q(a) :- Adv(1,a)"} trailing junk`,
		`{"query": "Q(a) :- Nope(1,a)"}`,
		`{"query": "Q(a) :- Adv(1,a"}`,
		`{"query": "\u0051(a) :- Adv(1,a)", "cache_conscious": false}`,
		`{"query": 5}`,
		`null`, `[]`, ``, `{`, `not json`,
	} {
		f.Add([]byte(seed))
	}
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 1.0, engine.Int(2), engine.Int(10))
	db.MustCreateRelation("Name", false, "a", "n")
	db.MustInsert("Name", 1.5, engine.Int(10), engine.Str(`x"<b>&\`+"\u2028\t"))
	db.MustInsert("Name", 0.5, engine.Int(11), engine.Str("plain"))
	m := core.New(db)
	v, err := core.ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(0.5))
	if err != nil {
		f.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		f.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		f.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		f.Fatal(err)
	}
	s := NewWith(ix, Config{
		MaxBodyBytes: 1 << 12,
		QueryTimeout: 2 * time.Second,
		Budget:       budget.Budget{MaxNodes: 1 << 16, MaxPairs: 1 << 16},
		Logger:       log.New(&bytes.Buffer{}, "", 0),
	})
	allowed := map[int]bool{200: true, 400: true, 408: true, 413: true, 422: true, 503: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("body %q: status %d (%s)", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var in queryRequest
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		q, err := ucq.Parse(in.Query)
		if err != nil {
			t.Fatalf("query %q answered 200 but does not parse: %v", in.Query, err)
		}
		want, err := ix.Query(q, mvindex.IntersectOptions{CacheConscious: true, DisableCache: true})
		if err != nil {
			t.Fatalf("query %q answered 200 but Index.Query fails: %v", in.Query, err)
		}
		checkBody(t, rec.Body.Bytes(), want)
	})
}
