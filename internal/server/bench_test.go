package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
	"mvdb/internal/qcache"
)

// The served-path benchmarks drive Server.ServeHTTP through httptest, with
// no socket, over mvdbd's default index: the synthetic DBLP at domain 4000,
// seed 1. They report B/op and allocs/op, which repeat from run to run where
// times do not; a change to the read or write path compares them.
const benchDomain = 4000

// dblpServeIndex builds the served index and returns the students, in the
// generator's order.
func dblpServeIndex(b *testing.B) (*mvindex.Index, []int64) {
	b.Helper()
	d, err := dblp.Generate(dblp.Config{NumAuthors: benchDomain, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := d.MVDB()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	return ix, d.Students
}

// pointQuery is the harness's point read: the advisors of one student.
func pointQuery(student int64) string {
	return fmt.Sprintf(`{"query": %q}`, dblp.QueryAdvisorOfStudent(student).String())
}

// serve runs one POST through the handler and fails unless it answers 200
// with a body holding want.
func serve(b *testing.B, s *Server, path, body, want string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
		b.Fatalf("%s %s: HTTP %d %s, want 200 with %s", path, body, rec.Code, rec.Body.Bytes(), want)
	}
}

// BenchmarkServeHit: one point query answered from the answer cache.
func BenchmarkServeHit(b *testing.B) {
	ix, students := dblpServeIndex(b)
	s := NewWith(ix, Config{})
	body := pointQuery(students[0])
	serve(b, s, "/query", body, `"prob"`) // fill the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, s, "/query", body, `"prob"`)
	}
}

// BenchmarkServeMiss: point queries over 512 students with the cache off,
// so every request parses, validates, computes lineage and intersects.
func BenchmarkServeMiss(b *testing.B) {
	ix, students := dblpServeIndex(b)
	s := NewWith(ix, Config{Cache: qcache.Options{Disable: true}})
	bodies := make([]string, 512)
	for i := range bodies {
		bodies[i] = pointQuery(students[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, s, "/query", bodies[i%len(bodies)], `"answers"`)
	}
}

// updateBody is batch i of the write_only shape on Advisor: an insert, a
// reweight of the previous batch's insert and a delete of the one before,
// so from batch 2 on every batch holds three mutations and the table keeps
// its size.
func updateBody(students []int64, i int) string {
	mut := func(op string, j int, extra string) string {
		return fmt.Sprintf(`{"op": %q, "rel": "Advisor", "vals": [%d, %d]%s}`,
			op, students[(j+1)%len(students)], 1_000_000+j, extra)
	}
	muts := []string{mut("insert", i, `, "weight": 1.5`)}
	if i >= 1 {
		muts = append(muts, mut("reweight", i-1, `, "weight": 0.8`))
	}
	if i >= 2 {
		muts = append(muts, mut("delete", i-2, ""))
	}
	return `{"mutations": [` + strings.Join(muts, ", ") + `]}`
}

// BenchmarkServeUpdate: a 3-mutation structural batch through /update and
// Live: validate, WAL append and fsync, and the index's delta apply. Every
// batch must take the incremental path.
func BenchmarkServeUpdate(b *testing.B) {
	var students []int64
	ix, l, err := OpenLive(LiveConfig{WALDir: b.TempDir()}, func() (*mvindex.Index, error) {
		ix, st := dblpServeIndex(b)
		students = st
		return ix, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s := NewWith(ix, Config{})
	s.EnableLive(l)
	for i := 0; i < 2; i++ { // reach the 3-mutation steady state
		serve(b, s, "/update", updateBody(students, i), `"full":false`)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, s, "/update", updateBody(students, i+2), `"full":false`)
	}
}
