package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

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
	// One reweighted tuple re-weighs exactly its own chain block and copies
	// nothing.
	if out["augmented_blocks"].(float64) != 1 || out["augmented_nodes"].(float64) < 1 || out["spliced_nodes"].(float64) != 0 {
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
	// the reweight one more.
	if applied["augmented_blocks"].(float64) < 2 || applied["augmented_nodes"].(float64) < 2 || applied["spliced_nodes"] == nil {
		t.Fatalf("work counters %v", applied)
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
