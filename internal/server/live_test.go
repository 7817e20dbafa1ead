package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
	"mvdb/internal/wal"
)

// liveMVDB is the mutable fixture: a probabilistic Adv table under a
// WeightTable-backed soft view, so the source survives snapshots and accepts
// mutations for heads that do not exist yet.
func liveMVDB() *core.MVDB {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 1.5, engine.Int(2), engine.Int(10))
	m := core.New(db)
	v, err := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2.5))
	if err != nil {
		panic(err)
	}
	v.Weights = &core.WeightTable{Default: 2.5}
	v.Weight = nil
	if err := m.AddView(v); err != nil {
		panic(err)
	}
	return m
}

func buildLiveIndex() (*mvindex.Index, error) {
	tr, err := liveMVDB().Translate(core.TranslateOptions{})
	if err != nil {
		return nil, err
	}
	return mvindex.Build(tr)
}

// scratchProb evaluates a boolean query on a fresh from-scratch index built
// from the initial MVDB plus the given mutations, in order.
func scratchProb(t *testing.T, muts []core.Mutation, query string) float64 {
	t.Helper()
	m := liveMVDB()
	if len(muts) > 0 {
		if err := m.Apply(muts); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ucq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ix.Query(q, mvindex.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Prob
}

func liveServer(t *testing.T, cfg LiveConfig) (*Server, *Live) {
	t.Helper()
	ix, l, err := OpenLive(cfg, buildLiveIndex)
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix)
	s.EnableLive(l)
	return s, l
}

func queryProb(t *testing.T, s *Server, query string) float64 {
	t.Helper()
	rec, out := do(t, s, "POST", "/query", fmt.Sprintf(`{"query": %q}`, query))
	if rec.Code != http.StatusOK {
		t.Fatalf("query: code %d body %s", rec.Code, rec.Body)
	}
	answers := out["answers"].([]any)
	if len(answers) == 0 {
		return 0
	}
	return answers[0].(map[string]any)["prob"].(float64)
}

const boolQ = "Q() :- Adv(1,a)"

func TestUpdateEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal")})
	defer l.Close()

	var applied []core.Mutation
	steps := []struct {
		body string
		muts []core.Mutation
	}{
		{`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}`,
			[]core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}, Weight: 3}}},
		{`{"mutations": [{"op": "delete", "rel": "Adv", "vals": [1, 11]},
		                 {"op": "reweight", "rel": "Adv", "vals": [1, 10], "weight": 0.5}]}`,
			[]core.Mutation{
				{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(11)}},
				{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(10)}, Weight: 0.5}}},
		{`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [3, 10], "weight": 1.25}]}`,
			[]core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(3), engine.Int(10)}, Weight: 1.25}}},
	}
	for i, step := range steps {
		rec, out := do(t, s, "POST", "/update", step.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: code %d body %s", i, rec.Code, rec.Body)
		}
		if seq := out["seq"].(float64); seq != float64(i+1) {
			t.Fatalf("step %d: seq %v", i, seq)
		}
		applied = append(applied, step.muts...)
		got := queryProb(t, s, boolQ)
		want := scratchProb(t, applied, boolQ)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("step %d: prob %v, from-scratch %v", i, got, want)
		}
	}
	// The probability actually shifted across the run.
	if p0, p := scratchProb(t, nil, boolQ), queryProb(t, s, boolQ); math.Abs(p0-p) < 1e-9 {
		t.Fatalf("mutations did not move the answer: %v", p)
	}
}

func TestUpdateValidation(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal")})
	defer l.Close()
	for _, body := range []string{
		`{"mutations": []}`,
		`{"mutations": [{"op": "insert", "rel": "Nope", "vals": [1], "weight": 1}]}`,
		`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 10], "weight": 1}]}`, // duplicate
		`{"mutations": [{"op": "frobnicate", "rel": "Adv", "vals": [1, 10]}]}`,
		`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 2.5], "weight": 1}]}`, // non-integer value
		`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [9, 9], "weight": -1}]}`,
		`{"mutations": [{"op": "delete", "rel": "Adv", "vals": [77, 77]}]}`, // absent
	} {
		rec, _ := do(t, s, "POST", "/update", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: code %d want 400", body, rec.Code)
		}
	}
	// Rejected batches must not reach the WAL.
	if st := l.log.Stats(); st.Frames != 0 {
		t.Fatalf("rejected batches were logged: %+v", st)
	}
	if p, want := queryProb(t, s, boolQ), scratchProb(t, nil, boolQ); math.Abs(p-want) > 1e-12 {
		t.Fatalf("rejected batches changed the answer: %v want %v", p, want)
	}
}

func TestUpdateDraining(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal")})
	defer l.Close()
	s.SetDraining(true)
	rec, out := do(t, s, "POST", "/update",
		`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [9, 9], "weight": 1}]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("code %d want 409", rec.Code)
	}
	if out["reason"] != "draining" {
		t.Fatalf("reason %v", out["reason"])
	}
	s.SetDraining(false)
	if rec, _ := do(t, s, "POST", "/update",
		`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [9, 9], "weight": 1}]}`); rec.Code != http.StatusOK {
		t.Fatalf("after undrain: code %d", rec.Code)
	}
}

func TestReweightEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal")})
	defer l.Close()
	rec, out := do(t, s, "POST", "/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 0.25}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d body %s", rec.Code, rec.Body)
	}
	if wo := out["weight_only"].(bool); !wo {
		t.Fatalf("reweight took the structural path: %v", out)
	}
	// One reweighted tuple re-weighs exactly its own chain block.
	if out["augmented_blocks"].(float64) != 1 || out["augmented_nodes"].(float64) < 1 {
		t.Fatalf("weight-only work counters: %v", out)
	}
	want := scratchProb(t, []core.Mutation{
		{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(10)}, Weight: 0.25},
	}, boolQ)
	if got := queryProb(t, s, boolQ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("prob %v want %v", got, want)
	}
	// Reweights are durable: they land in the WAL like any other mutation.
	if st := l.log.Stats(); st.Frames != 1 || st.SyncedSeq != 1 {
		t.Fatalf("wal stats %+v", st)
	}
}

func TestLiveStats(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal"), SnapshotPath: filepath.Join(dir, "snap")})
	defer l.Close()
	do(t, s, "POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [5, 50], "weight": 2}]}`)
	do(t, s, "POST", "/reweight", `{"rel": "Adv", "vals": [5, 50], "weight": 1.5}`)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rec, out := do(t, s, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if up := out["uptime_sec"].(float64); up < 0 {
		t.Fatalf("uptime %v", up)
	}
	live := out["live"].(map[string]any)
	applied := live["applied"].(map[string]any)
	if applied["batches"].(float64) != 2 || applied["mutations"].(float64) != 2 ||
		applied["inserts"].(float64) != 1 || applied["reweights"].(float64) != 1 ||
		applied["weight_only_batches"].(float64) != 1 {
		t.Fatalf("applied counters %v", applied)
	}
	// The structural batch augmented every block (first batch: full compile),
	// the reweight one more; both timed their apply.
	if applied["augmented_blocks"].(float64) < 2 || applied["augmented_nodes"].(float64) < 2 {
		t.Fatalf("work counters %v", applied)
	}
	if ns, max := applied["apply_ns"].(float64), applied["apply_max_ns"].(float64); max <= 0 || ns < max {
		t.Fatalf("apply time counters %v", applied)
	}
	if live["snapshot_seq"].(float64) != 2 {
		t.Fatalf("snapshot_seq %v", live["snapshot_seq"])
	}
	if live["last_snapshot_age_sec"] == nil {
		t.Fatalf("no snapshot age after snapshot: %v", live)
	}
	w := live["wal"].(map[string]any)
	if w["frames"].(float64) != 0 { // snapshot truncated the log
		t.Fatalf("wal stats after snapshot: %v", w)
	}
}

// TestCrashRecovery drops the server without any shutdown (buffered WAL
// frames are lost, like a kill -9) at several points and checks that
// recovery — snapshot plus WAL tail, or a from-scratch rebuild plus full
// replay — reproduces exactly the acknowledged mutations.
func TestCrashRecovery(t *testing.T) {
	for _, withSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", withSnapshot), func(t *testing.T) {
			dir := t.TempDir()
			cfg := LiveConfig{WALDir: filepath.Join(dir, "wal")}
			if withSnapshot {
				cfg.SnapshotPath = filepath.Join(dir, "snap")
			}
			s, l := liveServer(t, cfg)
			var acked []core.Mutation
			post := func(body string, muts ...core.Mutation) {
				t.Helper()
				rec, _ := do(t, s, "POST", "/update", body)
				if rec.Code == http.StatusOK {
					acked = append(acked, muts...)
				}
			}
			post(`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [4, 40], "weight": 2}]}`,
				core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(4), engine.Int(40)}, Weight: 2})
			post(`{"mutations": [{"op": "reweight", "rel": "Adv", "vals": [1, 10], "weight": 0.75}]}`,
				core.Mutation{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(10)}, Weight: 0.75})
			if withSnapshot {
				if err := l.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			post(`{"mutations": [{"op": "delete", "rel": "Adv", "vals": [1, 11]}]}`,
				core.Mutation{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(11)}})
			if len(acked) != 3 {
				t.Fatalf("acked %d mutations", len(acked))
			}

			// Crash: no Close, no flush. Reopen from disk.
			s2, l2 := liveServer(t, cfg)
			defer l2.Close()
			for _, q := range []string{boolQ, "Q(a) :- Adv(4,a)", "Q(s) :- Adv(s,10)"} {
				got := queryProb(t, s2, q)
				want := scratchProb(t, acked, q)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("query %s after recovery: %v, from-scratch %v", q, got, want)
				}
			}
			// Recovered server keeps accepting updates with continuing seqs.
			rec, out := do(t, s2, "POST", "/update",
				`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [6, 60], "weight": 1.1}]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("post-recovery update: %d %s", rec.Code, rec.Body)
			}
			if seq := out["seq"].(float64); seq != 4 {
				t.Fatalf("post-recovery seq %v want 4", seq)
			}
		})
	}
}

// TestCrashRecoveryFaultInjection fails the WAL fsync from a chosen point
// on: later updates are not acknowledged, and recovery must still serve every
// acknowledged one. Unacknowledged mutations may or may not survive — the
// contract is only about acks.
func TestCrashRecoveryFaultInjection(t *testing.T) {
	boom := errors.New("injected fsync failure")
	for failFrom := 1; failFrom <= 3; failFrom++ {
		var mu sync.Mutex
		syncs := 0
		dir := t.TempDir()
		cfg := LiveConfig{
			WALDir: filepath.Join(dir, "wal"),
			Hooks: wal.Hooks{BeforeSync: func() error {
				mu.Lock()
				defer mu.Unlock()
				syncs++
				if syncs >= failFrom {
					return boom
				}
				return nil
			}},
		}
		s, _ := liveServer(t, cfg)
		var acked []core.Mutation
		for i := 0; i < 3; i++ {
			body := fmt.Sprintf(`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [%d, 90], "weight": 2}]}`, 20+i)
			rec, _ := do(t, s, "POST", "/update", body)
			if rec.Code == http.StatusOK {
				acked = append(acked, core.Mutation{
					Op: core.MutInsert, Rel: "Adv",
					Vals: []engine.Value{engine.Int(int64(20 + i)), engine.Int(90)}, Weight: 2,
				})
			}
		}
		if len(acked) >= 3 {
			t.Fatalf("failFrom=%d: every update acked despite fsync failures", failFrom)
		}

		// Crash and recover without hooks.
		s2, l2 := liveServer(t, LiveConfig{WALDir: cfg.WALDir})
		for _, m := range acked {
			q := fmt.Sprintf("Q(a) :- Adv(%d,a)", m.Vals[0].Int)
			if got := queryProb(t, s2, q); got <= 0 {
				t.Fatalf("failFrom=%d: acked insert %v lost after recovery", failFrom, m.Vals)
			}
		}
		l2.Close()
	}
}

// TestUpdateQueryInterleave hammers concurrent readers against a writer: any
// successfully answered query must equal the from-scratch answer of some
// prefix of the applied batches — never a stale cached value (run with
// -race).
func TestUpdateQueryInterleave(t *testing.T) {
	dir := t.TempDir()
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(dir, "wal")})
	defer l.Close()

	batches := []core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}, Weight: 3},
		{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(10)}, Weight: 0.5},
		{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(11)}},
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(13)}, Weight: 1.5},
		{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(13)}, Weight: 4},
		{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}},
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(14)}, Weight: 2},
		{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(14)}, Weight: 0.25},
	}
	// Every prefix's from-scratch answer, keyed at full precision: the set of
	// values a reader may legally observe.
	legal := map[string]bool{}
	for k := 0; k <= len(batches); k++ {
		legal[fmt.Sprintf("%.17g", scratchProb(t, batches[:k], boolQ))] = true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p := queryProb(t, s, boolQ)
				if !legal[fmt.Sprintf("%.17g", p)] {
					t.Errorf("observed stale/impossible answer %v", p)
					return
				}
			}
		}()
	}
	for i, m := range batches {
		var body string
		switch m.Op {
		case core.MutInsert:
			body = fmt.Sprintf(`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [%d, %d], "weight": %g}]}`,
				m.Vals[0].Int, m.Vals[1].Int, m.Weight)
		case core.MutDelete:
			body = fmt.Sprintf(`{"mutations": [{"op": "delete", "rel": "Adv", "vals": [%d, %d]}]}`,
				m.Vals[0].Int, m.Vals[1].Int)
		case core.MutReweight:
			body = fmt.Sprintf(`{"mutations": [{"op": "reweight", "rel": "Adv", "vals": [%d, %d], "weight": %g}]}`,
				m.Vals[0].Int, m.Vals[1].Int, m.Weight)
		}
		rec, _ := do(t, s, "POST", "/update", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: code %d body %s", i, rec.Code, rec.Body)
		}
	}
	close(done)
	wg.Wait()
	if got, want := queryProb(t, s, boolQ), scratchProb(t, batches, boolQ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("final prob %v want %v", got, want)
	}
}

// commitGate is a wal BeforeSync hook that, while armed, holds every group
// commit before its write until the test lets it go.
type commitGate struct {
	armed   atomic.Bool
	entered chan struct{} // one receive per held commit
	release chan error    // what the held commit's hook returns
}

func newCommitGate() *commitGate {
	return &commitGate{entered: make(chan struct{}), release: make(chan error)}
}

func (g *commitGate) hook() error {
	if !g.armed.Load() {
		return nil
	}
	g.entered <- struct{}{}
	return <-g.release
}

// post sends one write from a goroutine of its own and delivers the recorded
// response.
func post(s *Server, path, body string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		done <- rec
	}()
	return done
}

// awaitProb polls a query until it answers want: the moment an applied batch
// becomes visible to readers.
func awaitProb(t *testing.T, s *Server, query string, want float64) {
	t.Helper()
	waitReplication(t, fmt.Sprintf("query %s to answer %v", query, want),
		func() bool { return math.Abs(queryProb(t, s, query)-want) <= 1e-12 })
}

// TestAckWaitsForFsync: the fsync runs beside the apply, so readers see a
// batch while its commit is still held — but neither /update nor /reweight
// answers before the fsync that covers its frame.
func TestAckWaitsForFsync(t *testing.T) {
	gate := newCommitGate()
	s, l := liveServer(t, LiveConfig{
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Hooks:  wal.Hooks{BeforeSync: gate.hook},
	})
	defer l.Close()
	gate.armed.Store(true)

	var applied []core.Mutation
	for i, w := range []struct {
		path, body string
		mut        core.Mutation
	}{
		{"/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}`,
			core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}, Weight: 3}},
		{"/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 0.5}`,
			core.Mutation{Op: core.MutReweight, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(10)}, Weight: 0.5}},
	} {
		seq := uint64(i + 1)
		acked := post(s, w.path, w.body)
		<-gate.entered
		applied = append(applied, w.mut)
		awaitProb(t, s, boolQ, scratchProb(t, applied, boolQ))
		select {
		case rec := <-acked:
			t.Fatalf("%s answered %d before its fsync: %s", w.path, rec.Code, rec.Body)
		default:
		}
		if got := l.log.SyncedSeq(); got >= seq {
			t.Fatalf("%s: frame %d durable (synced %d) although its commit is held", w.path, seq, got)
		}
		gate.release <- nil
		rec := <-acked
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after the fsync: code %d body %s", w.path, rec.Code, rec.Body)
		}
		if got := l.log.SyncedSeq(); got < seq {
			t.Fatalf("%s acknowledged frame %d with the log synced only to %d", w.path, seq, got)
		}
	}
	_, out := do(t, s, "GET", "/stats", "")
	w := out["live"].(map[string]any)["wal"].(map[string]any)
	if w["fsyncs"].(float64) != 2 || w["fsync_frames"].(float64) != 2 || w["synced_seq"].(float64) != 2 {
		t.Fatalf("wal stats %v, want 2 fsyncs of one frame", w)
	}
	if w["ack_wait_ns"].(float64) <= 0 || w["fsync_ns"].(float64) <= 0 {
		t.Fatalf("wal stats %v: held commits left no ack wait or no fsync time", w)
	}
}

// TestCrashInsideCommit: the process dies inside BeforeSync, after the apply
// completed and readers saw the batch. The batch was never acknowledged, and
// recovery holds it if and only if its frame reached the disk.
func TestCrashInsideCommit(t *testing.T) {
	gate := newCommitGate()
	cfg := LiveConfig{WALDir: filepath.Join(t.TempDir(), "wal")}
	held := cfg
	held.Hooks = wal.Hooks{BeforeSync: gate.hook}
	s, _ := liveServer(t, held)

	first := core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}, Weight: 3}
	if rec, _ := do(t, s, "POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}`); rec.Code != http.StatusOK {
		t.Fatalf("first update: %d", rec.Code)
	}
	gate.armed.Store(true)
	second := core.Mutation{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(11)}}
	acked := post(s, "/update", `{"mutations": [{"op": "delete", "rel": "Adv", "vals": [1, 11]}]}`)
	<-gate.entered
	awaitProb(t, s, boolQ, scratchProb(t, []core.Mutation{first, second}, boolQ))

	// The crash: nothing of the old process runs again. Recover from disk.
	var onDisk []core.Mutation
	if err := wal.Replay(cfg.WALDir, 0, func(_ uint64, rec []byte) error {
		batch, err := core.DecodeMutations(rec)
		onDisk = append(onDisk, batch...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(onDisk) < 1 || len(onDisk) > 2 {
		t.Fatalf("WAL holds %d mutations, want the acknowledged one and at most the held one", len(onDisk))
	}
	s2, l2 := liveServer(t, cfg)
	defer l2.Close()
	if got, want := queryProb(t, s2, boolQ), scratchProb(t, onDisk, boolQ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("recovered answer %v, rebuild over the %d mutations on disk %v", got, len(onDisk), want)
	}
	select {
	case rec := <-acked:
		t.Fatalf("the held batch was acknowledged: %d %s", rec.Code, rec.Body)
	default:
	}
	// Let the abandoned handler go; it must not turn into an acknowledgment.
	gate.release <- errors.New("process is gone")
	if rec := <-acked; rec.Code == http.StatusOK {
		t.Fatalf("the held batch was acknowledged after all: %s", rec.Body)
	}
}

// TestServerGroupCommit: a lone writer gets one fsync per acknowledgment;
// eight writers behind a slow commit share them; and no acknowledgment ever
// carries a sequence number the log has not synced.
func TestServerGroupCommit(t *testing.T) {
	var slow atomic.Bool
	s, l := liveServer(t, LiveConfig{
		WALDir:      filepath.Join(t.TempDir(), "wal"),
		GroupCommit: 50 * time.Millisecond,
		Hooks: wal.Hooks{BeforeSync: func() error {
			if slow.Load() {
				time.Sleep(3 * time.Millisecond)
			}
			return nil
		}},
	})
	defer l.Close()
	write := func(student, advisor int) error {
		rec := <-post(s, "/update", fmt.Sprintf(
			`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [%d, %d], "weight": 2}]}`, student, advisor))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("code %d body %s", rec.Code, rec.Body)
		}
		var out struct{ Seq uint64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			return err
		}
		if synced := l.log.SyncedSeq(); synced < out.Seq {
			return fmt.Errorf("frame %d acknowledged with the log synced to %d", out.Seq, synced)
		}
		return nil
	}

	const lone = 10
	t0 := time.Now()
	for i := 0; i < lone; i++ {
		if err := write(50, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(t0); took > lone*50*time.Millisecond/2 {
		t.Fatalf("%d lone writes took %v: the writer pays a commit window", lone, took)
	}
	if st := l.log.Stats(); st.Fsyncs != lone || st.FsyncFrames != lone {
		t.Fatalf("lone writer: %+v, want %d fsyncs of one frame", st, lone)
	}

	const writers, per = 8, 5
	slow.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := write(60+w, 200+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.log.Stats()
	if st.FsyncFrames != lone+writers*per || st.SyncedSeq != lone+writers*per {
		t.Fatalf("concurrent writers: %+v", st)
	}
	if shared := st.Fsyncs - lone; shared >= writers*per {
		t.Fatalf("%d fsyncs for %d concurrent acknowledgments: no group commit", shared, writers*per)
	}
}

// TestWALErrorIs5xx: a write the log refuses is answered 500 with reason
// "wal" and is not applied.
func TestWALErrorIs5xx(t *testing.T) {
	s, l := liveServer(t, LiveConfig{WALDir: filepath.Join(t.TempDir(), "wal")})
	if err := l.log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, out := do(t, s, "POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [9, 9], "weight": 1}]}`)
	if rec.Code != http.StatusInternalServerError || out["reason"] != "wal" {
		t.Fatalf("code %d reason %v", rec.Code, out["reason"])
	}
	if got, want := queryProb(t, s, "Q(a) :- Adv(9,a)"), 0.0; got != want {
		t.Fatalf("refused batch was applied: %v", got)
	}
}

// TestApplyFailureFailsClosed: a logged batch that fails to apply after the
// delta translation has patched the index's databases — injected through the
// index's compile-failure seam — puts the server in a failed state: no
// query, explain, marginal, update or reweight answers with a number,
// /readyz is not ready and no snapshot is cut, until a restart recovers the
// batch from the WAL.
func TestApplyFailureFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cfg := LiveConfig{WALDir: filepath.Join(dir, "wal"), SnapshotPath: filepath.Join(dir, "snap")}
	s, l := liveServer(t, cfg)
	// A first structural batch, so the failing one takes the in-place route.
	first := core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(12)}, Weight: 3}
	failing := core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(13)}, Weight: 2}
	if rec, _ := do(t, s, "POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}`); rec.Code != http.StatusOK {
		t.Fatalf("first batch: code %d", rec.Code)
	}
	s.ix.FailCompile(errors.New("injected compile failure"))
	probes := []struct{ method, path, body string }{
		{"POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 13], "weight": 2}]}`},
		{"POST", "/query", fmt.Sprintf(`{"query": %q}`, boolQ)},
		{"POST", "/explain", fmt.Sprintf(`{"query": %q}`, boolQ)},
		{"GET", "/marginal?var=1", ""},
		{"POST", "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [2, 14], "weight": 1}]}`},
		{"POST", "/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 0.5}`},
		{"GET", "/readyz", ""},
	}
	for _, p := range probes {
		rec, out := do(t, s, p.method, p.path, p.body)
		if rec.Code != http.StatusServiceUnavailable || out["reason"] != "index" {
			t.Fatalf("%s %s after the failure: code %d body %s", p.method, p.path, rec.Code, rec.Body)
		}
		if _, ok := out["answers"]; ok || out["prob"] != nil || out["marginal"] != nil {
			t.Fatalf("%s %s served a number: %s", p.method, p.path, rec.Body)
		}
	}
	if rec, out := do(t, s, "GET", "/stats", ""); rec.Code != http.StatusOK || out["failed"] == nil {
		t.Fatalf("/stats does not report the failure: %d %s", rec.Code, rec.Body)
	}
	var f *IndexFailure
	if err := l.Snapshot(); !errors.As(err, &f) || f.Seq != 2 {
		t.Fatalf("snapshot of a failed index: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery rebuilds and replays the WAL, the failed batch too.
	s2, l2 := liveServer(t, cfg)
	defer l2.Close()
	if rec, _ := do(t, s2, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d", rec.Code)
	}
	want := scratchProb(t, []core.Mutation{first, failing}, boolQ)
	if got := queryProb(t, s2, boolQ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("recovered prob %v, want %v", got, want)
	}
}
