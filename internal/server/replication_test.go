package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/replica"
	"mvdb/internal/wal"
)

func vals(vs ...int) []engine.Value {
	out := make([]engine.Value, len(vs))
	for i, v := range vs {
		out[i] = engine.Int(int64(v))
	}
	return out
}

// replPrimaryServer builds a live primary with replication enabled, served
// over real HTTP (the follower's fetch loop dials it).
func replPrimaryServer(t *testing.T, dir string, rcfg ReplicationConfig) (*Server, *Live, *httptest.Server) {
	t.Helper()
	ix, l, err := OpenLive(LiveConfig{WALDir: dir, SnapshotPath: filepath.Join(dir, "index.snap"), GroupCommit: 0}, buildLiveIndex)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(ix, Config{})
	if err := s.EnableReplication(l, rcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, l, ts
}

// killServer stops a test server the way a crash would: no new connections,
// open ones severed. Close shuts the listener and then waits for active
// connections; a follower that re-dials between a CloseClientConnections and
// the Close holds a stream open that nothing would ever end, so connections
// are severed until Close returns.
func killServer(ts *httptest.Server) {
	done := make(chan struct{})
	go func() {
		ts.Close()
		close(done)
	}()
	for {
		ts.CloseClientConnections()
		select {
		case <-done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// replFollowerServer bootstraps a follower of cfg.PrimaryURL with its local
// state in dir and serves it.
func replFollowerServer(t *testing.T, dir string, cfg FollowerConfig) (*Server, *Live, *httptest.Server) {
	return replFollowerServerWith(t, dir, cfg, ReplicationConfig{})
}

// replFollowerServerWith is replFollowerServer with the replication settings
// the node ships its log with once promoted.
func replFollowerServerWith(t *testing.T, dir string, cfg FollowerConfig, rcfg ReplicationConfig) (*Server, *Live, *httptest.Server) {
	t.Helper()
	cfg.WALDir = dir
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	ix, l, err := OpenFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(ix, Config{})
	if err := s.EnableReplication(l, rcfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	// Stop the fetch loop before the primary's httptest cleanup: an open
	// stream would pin its Close. Live.Close is idempotent.
	t.Cleanup(func() { l.Close() })
	t.Cleanup(ts.Close)
	return s, l, ts
}

func waitReplication(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func followerApplied(s *Server) uint64 { return s.live.AppliedSeq() }

// updateBodies is a deterministic mutation script with its core.Mutation
// mirror, so tests can compare against a from-scratch rebuild.
var replSteps = []struct {
	body string
	muts []core.Mutation
}{
	{`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 12], "weight": 3}]}`,
		[]core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: vals(1, 12), Weight: 3}}},
	{`{"mutations": [{"op": "delete", "rel": "Adv", "vals": [1, 11]},
	                 {"op": "reweight", "rel": "Adv", "vals": [1, 10], "weight": 0.5}]}`,
		[]core.Mutation{
			{Op: core.MutDelete, Rel: "Adv", Vals: vals(1, 11)},
			{Op: core.MutReweight, Rel: "Adv", Vals: vals(1, 10), Weight: 0.5}}},
	{`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [3, 10], "weight": 1.25}]}`,
		[]core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: vals(3, 10), Weight: 1.25}}},
	{`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 13], "weight": 0.75}]}`,
		[]core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: vals(1, 13), Weight: 0.75}}},
}

// TestReplicationConverges: a follower bootstraps from the primary's
// snapshot, tails its WAL, and answers queries identically (1e-12) to a
// from-scratch rebuild over the same mutations.
func TestReplicationConverges(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 50 * time.Millisecond,
	})
	fs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL: pts.URL,
	})

	var applied []core.Mutation
	for i, step := range replSteps {
		rec, _ := do(t, ps, "POST", "/update", step.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: code %d body %s", i, rec.Code, rec.Body)
		}
		applied = append(applied, step.muts...)
	}
	want := uint64(len(replSteps))
	waitReplication(t, "follower catch-up", func() bool { return followerApplied(fs) == want })

	got := queryProb(t, fs, boolQ)
	exp := scratchProb(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("follower answer %v, from-scratch %v", got, exp)
	}
	// Role and lag surface in /stats on both sides.
	if _, out := do(t, ps, "GET", "/stats", ""); out["role"] != "primary" || out["term"].(float64) != 1 {
		t.Fatalf("primary stats: role=%v term=%v", out["role"], out["term"])
	}
	// The fetch loop's own counters update just after Apply returns, so give
	// them a beat.
	waitReplication(t, "follower stats settle", func() bool {
		_, out := do(t, fs, "GET", "/stats", "")
		if out["role"] != "follower" {
			t.Fatalf("follower stats role %v", out["role"])
		}
		repl := out["replication"].(map[string]any)
		return repl["applied_seq"].(float64) == float64(want) && repl["primary_term"].(float64) == 1
	})
}

// TestFollowerRefusesWrites: writes on a follower answer 503 not-primary.
func TestFollowerRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	_, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{})
	fs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL: pts.URL,
	})
	rec, out := do(t, fs, "POST", "/update", replSteps[0].body)
	if rec.Code != http.StatusServiceUnavailable || out["reason"] != "not-primary" {
		t.Fatalf("code %d reason %v", rec.Code, out["reason"])
	}
	if rec, _ := do(t, fs, "POST", "/reweight", `{"rel": "Adv", "vals": [1, 10], "weight": 1}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("reweight on follower: code %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("write refusal must carry Retry-After")
	}
}

// TestFollowerStaleness503: a follower cut off from its primary stops
// serving once past its staleness bound, with 503 + Retry-After, rather than
// returning silently stale probabilities.
func TestFollowerStaleness503(t *testing.T) {
	dir := t.TempDir()
	_, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	fs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL:   pts.URL,
		MaxStaleness: 150 * time.Millisecond,
	})
	// Fresh: within the bound, reads flow.
	if got, exp := queryProb(t, fs, boolQ), scratchProb(t, nil, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("fresh follower answer %v want %v", got, exp)
	}
	// Kill the primary; heartbeats stop; the bound trips.
	killServer(pts)
	waitReplication(t, "staleness trip", func() bool {
		rec, _ := do(t, fs, "POST", "/query", fmt.Sprintf(`{"query": %q}`, boolQ))
		return rec.Code == http.StatusServiceUnavailable
	})
	rec, out := do(t, fs, "POST", "/query", fmt.Sprintf(`{"query": %q}`, boolQ))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale follower served: code %d", rec.Code)
	}
	if out["reason"] != "stale" || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("stale refusal: reason=%v retry-after=%q", out["reason"], rec.Header().Get("Retry-After"))
	}
}

// TestPromoteFailover: kill the primary mid-stream, promote the follower,
// and check the new primary's answers are 1e-12-identical to a from-scratch
// rebuild — and that it serves its own followers.
func TestPromoteFailover(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	// The replication settings the follower is opened with are the ones its
	// stream ships with once promoted.
	var shipped atomic.Uint64
	fs, _, fts := replFollowerServerWith(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL: pts.URL,
	}, ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		Hooks: replica.Hooks{ShipFrame: func(_ uint64, frame []byte) [][]byte {
			shipped.Add(1)
			return [][]byte{frame}
		}},
	})

	var applied []core.Mutation
	for _, step := range replSteps[:2] {
		if rec, _ := do(t, ps, "POST", "/update", step.body); rec.Code != http.StatusOK {
			t.Fatalf("update: %d", rec.Code)
		}
		applied = append(applied, step.muts...)
	}
	waitReplication(t, "pre-failover catch-up", func() bool { return followerApplied(fs) == 2 })

	// Primary dies mid-stream.
	killServer(pts)

	rec, out := do(t, fs, "POST", "/replication/promote", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("promote: code %d body %s", rec.Code, rec.Body)
	}
	if out["term"].(float64) != 2 || out["applied_seq"].(float64) != 2 {
		t.Fatalf("promote response %v", out)
	}
	// The promoted node accepts writes and continues the WAL line.
	for _, step := range replSteps[2:] {
		rec, out := do(t, fs, "POST", "/update", step.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("post-failover update: %d %s", rec.Code, rec.Body)
		}
		if seq := out["seq"].(float64); seq <= 2 {
			t.Fatalf("post-failover seq %v did not continue the line", seq)
		}
		applied = append(applied, step.muts...)
	}
	got := queryProb(t, fs, boolQ)
	exp := scratchProb(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("promoted answer %v, from-scratch %v", got, exp)
	}
	// Promoting again is a 409, not a double promotion.
	if rec, _ := do(t, fs, "POST", "/replication/promote", ""); rec.Code != http.StatusConflict {
		t.Fatalf("second promote: code %d", rec.Code)
	}
	_ = ps

	// A fresh follower of the promoted node converges to the same answers.
	cs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica2"), FollowerConfig{
		PrimaryURL: fts.URL,
	})
	waitReplication(t, "chained follower catch-up", func() bool { return followerApplied(cs) == 4 })
	if got := queryProb(t, cs, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("chained follower answer %v, want %v", got, exp)
	}
	waitReplication(t, "the promoted node's stream to run the follower's hooks",
		func() bool { return shipped.Load() > 0 })
}

// TestPromoteBootstrapOnlySeqLine: a follower whose bootstrap snapshot
// covered every frame (none shipped since) holds an empty local log.
// Promotion must re-anchor that log at the snapshot position so the first
// post-promote write gets a fresh sequence number — and a crash-restart of
// the promoted node must recover that write instead of filtering it out as
// snapshot-covered.
func TestPromoteBootstrapOnlySeqLine(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	// One batch BEFORE the follower exists: the bootstrap snapshot covers it,
	// so nothing is ever shipped over the stream.
	if rec, _ := do(t, ps, "POST", "/update", replSteps[0].body); rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	fdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, fdir, FollowerConfig{PrimaryURL: pts.URL})
	waitReplication(t, "bootstrap", func() bool { return followerApplied(fs) == 1 })

	killServer(pts)
	if rec, _ := do(t, fs, "POST", "/replication/promote", ""); rec.Code != http.StatusOK {
		t.Fatalf("promote: %d", rec.Code)
	}
	rec, out := do(t, fs, "POST", "/update", replSteps[3].body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-promote update: %d %s", rec.Code, rec.Body)
	}
	if seq := out["seq"].(float64); seq != 2 {
		t.Fatalf("post-promote write got seq %v, want 2 (the snapshot covers 1)", seq)
	}
	applied := append(append([]core.Mutation{}, replSteps[0].muts...), replSteps[3].muts...)
	exp := scratchProb(t, applied, boolQ)

	// Crash the promoted node (close the log with no final snapshot) and
	// recover its directory as a plain live node: snapshot at seq 1 + WAL
	// replay must yield the acknowledged post-promote write.
	if err := f.log.Close(); err != nil {
		t.Fatal(err)
	}
	ix, l2, err := OpenLive(LiveConfig{WALDir: fdir, SnapshotPath: filepath.Join(fdir, "index.snap")},
		func() (*mvindex.Index, error) { return nil, fmt.Errorf("recovery must come from the snapshot") })
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWith(ix, Config{})
	s2.EnableLive(l2)
	t.Cleanup(func() { l2.Close() })
	if got := queryProb(t, s2, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("recovered promoted node answer %v, want %v", got, exp)
	}
}

// TestFencingDemotesStalePrimary: promotion fences the surviving old
// primary — it stops acking writes the moment it learns of the higher term.
func TestFencingDemotesStalePrimary(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	fs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL: pts.URL,
	})
	if rec, _ := do(t, ps, "POST", "/update", replSteps[0].body); rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 1 })

	// Promote while the old primary is still alive (a network partition from
	// the operator's point of view, not a dead node).
	if rec, _ := do(t, fs, "POST", "/replication/promote", ""); rec.Code != http.StatusOK {
		t.Fatalf("promote: %d", rec.Code)
	}
	// The promotion notifies the old primary; it must demote itself.
	waitReplication(t, "old primary demotion", func() bool {
		_, out := do(t, ps, "GET", "/stats", "")
		return out["role"] == "demoted"
	})
	rec, out := do(t, ps, "POST", "/update", replSteps[2].body)
	if rec.Code != http.StatusServiceUnavailable || out["reason"] != "not-primary" {
		t.Fatalf("demoted primary acked a write: code %d reason %v", rec.Code, out["reason"])
	}
	// Its persisted term moved up too: a restart cannot resurrect the old line.
	if term, err := replica.LoadTerm(filepath.Join(dir, "primary")); err != nil || term != 2 {
		t.Fatalf("persisted term %d, %v; want 2", term, err)
	}
}

// TestFollowerLocalRecovery: a follower restart recovers from its local
// snapshot and WAL without refetching, resumes the stream at its cursor, and
// keeps converging.
func TestFollowerLocalRecovery(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	rdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})

	var applied []core.Mutation
	for _, step := range replSteps[:2] {
		do(t, ps, "POST", "/update", step.body)
		applied = append(applied, step.muts...)
	}
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 2 })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// More writes while the follower is down.
	for _, step := range replSteps[2:] {
		do(t, ps, "POST", "/update", step.body)
		applied = append(applied, step.muts...)
	}

	// Restart: local state has seq 2, the stream supplies 3 and 4 — once the
	// recovered position has been read.
	client, release := gatedClient()
	fs2, f2, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL, Client: client})
	if f2.AppliedSeq() != 2 {
		t.Fatalf("recovered at seq %d, want 2", f2.AppliedSeq())
	}
	release()
	waitReplication(t, "post-restart catch-up", func() bool { return followerApplied(fs2) == 4 })
	got := queryProb(t, fs2, boolQ)
	exp := scratchProb(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("recovered follower answer %v, from-scratch %v", got, exp)
	}
}

// TestFollowerRebootstrapsPastHorizon: when the primary's WAL was truncated
// past the follower's cursor (410), the follower refetches a snapshot
// mid-flight and keeps going.
func TestFollowerRebootstrapsPastHorizon(t *testing.T) {
	dir := t.TempDir()
	ps, pl, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	rdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	do(t, ps, "POST", "/update", replSteps[0].body)
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 1 })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var applied []core.Mutation
	applied = append(applied, replSteps[0].muts...)
	for _, step := range replSteps[1:] {
		do(t, ps, "POST", "/update", step.body)
		applied = append(applied, step.muts...)
	}
	// Snapshot + truncate: the primary's log now starts above the follower's
	// cursor.
	if err := pl.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fs2, _, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	waitReplication(t, "rebootstrap", func() bool { return followerApplied(fs2) == 4 })
	rs := fs2.repl
	rs.roleMu.Lock()
	boots := rs.follower.Stats().Bootstraps
	rs.roleMu.Unlock()
	if boots == 0 {
		t.Fatal("follower never re-bootstrapped despite the horizon move")
	}
	got := queryProb(t, fs2, boolQ)
	exp := scratchProb(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("rebootstrapped answer %v, from-scratch %v", got, exp)
	}
}

// TestRebootstrapPersistsBeforeServing: a rebootstrap persists its snapshot
// before it swaps the index in. While the persist fails (the snapshot path is
// a directory, so the rename fails) the follower keeps its old index at its
// old position and the fetch loop retries; once the disk recovers it
// converges, and a restart from its dir recovers the primary's numbers.
func TestRebootstrapPersistsBeforeServing(t *testing.T) {
	dir := t.TempDir()
	ps, pl, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	rdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	do(t, ps, "POST", "/update", replSteps[0].body)
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 1 })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var applied []core.Mutation
	applied = append(applied, replSteps[0].muts...)
	for _, step := range replSteps[1:] {
		do(t, ps, "POST", "/update", step.body)
		applied = append(applied, step.muts...)
	}
	// Snapshot + truncate: the primary's log now starts above the follower's
	// cursor, so the restarted follower must rebootstrap.
	if err := pl.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Restart the follower, holding its requests until its snapshot path is a
	// directory.
	client, release := gatedClient()
	fs2, f2, _ := replFollowerServer(t, rdir, FollowerConfig{
		PrimaryURL: pts.URL,
		Client:     client,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	})
	snapPath := filepath.Join(rdir, "index.snap")
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snapPath, 0o755); err != nil {
		t.Fatal(err)
	}
	release()
	fol := fs2.repl.follower
	waitReplication(t, "failed rebootstraps", func() bool {
		st := fol.Stats()
		return st.Bootstraps >= 2 && st.Retries >= 2
	})
	if got := f2.AppliedSeq(); got != 1 {
		t.Fatalf("applied seq %d after rebootstraps that could not persist, want the old cursor 1", got)
	}
	if got, exp := queryProb(t, fs2, boolQ), scratchProb(t, replSteps[0].muts, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("follower answer %v while its rebootstrap cannot persist, want the old index's %v", got, exp)
	}

	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	waitReplication(t, "rebootstrap", func() bool { return followerApplied(fs2) == 4 })
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	fs3, _, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	if got, exp := queryProb(t, fs3, boolQ), scratchProb(t, applied, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("restarted follower answer %v, from-scratch %v", got, exp)
	}
}

// gatedClient returns an HTTP client whose requests wait until release is
// called, so a test can act on a follower before its fetch loop does.
func gatedClient() (client *http.Client, release func()) {
	gate := make(chan struct{})
	return &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		select {
		case <-gate:
			return http.DefaultTransport.RoundTrip(r)
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	})}, sync.OnceFunc(func() { close(gate) })
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestReplicationFaultHammer drives the stream through dropped, duplicated,
// truncated and stalled frames while queries race the apply path, then
// demands exact convergence. Run it under -race (ci.sh does).
func TestReplicationFaultHammer(t *testing.T) {
	dir := t.TempDir()
	var shipped atomic.Uint64
	hooks := replica.Hooks{ShipFrame: func(seq uint64, frame []byte) [][]byte {
		// Deterministic per-call (not per-seq) schedule, so a replayed frame
		// eventually gets through.
		switch n := shipped.Add(1); {
		case n%7 == 3:
			return nil // dropped: the follower sees a gap and reconnects
		case n%7 == 5:
			return [][]byte{frame, frame} // duplicated delivery
		case n%11 == 8:
			return [][]byte{frame[:len(frame)-2]} // truncated: CRC tear
		case n%13 == 12:
			time.Sleep(120 * time.Millisecond) // stall past the watchdog
			return [][]byte{frame}
		default:
			return [][]byte{frame}
		}
	}}
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		Hooks:             hooks,
	})
	// Watchdog tighter than the injected stall, so stalls actually trip it;
	// fast reconnects so the fault storm cannot outpace convergence.
	fs, _, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL:       pts.URL,
		HeartbeatTimeout: 60 * time.Millisecond,
		MinBackoff:       5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
	})

	// Writers: a deterministic insert/delete churn plus reweights.
	const writers, rounds = 3, 8
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := 100 + w*rounds + r
				body := fmt.Sprintf(`{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, %d], "weight": 1.5}]}`, a)
				rec, out := do(t, ps, "POST", "/update", body)
				if rec.Code != http.StatusOK {
					t.Errorf("writer %d round %d: code %d body %s", w, r, rec.Code, rec.Body)
					return
				}
				if s := uint64(out["seq"].(float64)); s > seq.Load() {
					seq.Store(s)
				}
			}
		}(w)
	}
	// Readers race the apply path on the follower the whole time.
	stopReads := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
					do(t, fs, "POST", "/query", fmt.Sprintf(`{"query": %q}`, boolQ))
				}
			}
		}()
	}
	wg.Wait()
	total := seq.Load()
	waitReplication(t, "hammer convergence", func() bool { return followerApplied(fs) == total })
	close(stopReads)
	rwg.Wait()

	// The follower survived every fault and converged exactly: answers match
	// a from-scratch rebuild over the same mutation set.
	var applied []core.Mutation
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			applied = append(applied, core.Mutation{
				Op: core.MutInsert, Rel: "Adv", Vals: vals(1, 100+w*rounds+r), Weight: 1.5,
			})
		}
	}
	got := queryProb(t, fs, boolQ)
	exp := scratchProbAnyOrder(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("hammered follower answer %v, from-scratch %v", got, exp)
	}
	// And the faults actually fired.
	rs := fs.repl
	rs.roleMu.Lock()
	st := rs.follower.Stats()
	rs.roleMu.Unlock()
	if st.Retries == 0 || st.Duplicates == 0 {
		t.Fatalf("fault schedule never fired: %+v", st)
	}

	// The pipelined commit's window: a frame is durable, and therefore
	// shipped, while the primary is still applying it. Hold the primary there
	// (a reader pinning its index lock), let the follower apply the frame
	// through the same fault schedule, and promote it before the primary has
	// acknowledged anything. The promoted node must hold the batch and agree
	// with a from-scratch rebuild.
	ps.mu.RLock()
	unpin := sync.OnceFunc(ps.mu.RUnlock)
	defer unpin()
	last := core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: vals(1, 999), Weight: 0.5}
	acked := post(ps, "/update", `{"mutations": [{"op": "insert", "rel": "Adv", "vals": [1, 999], "weight": 0.5}]}`)
	waitReplication(t, "the follower to apply a frame its primary is still applying",
		func() bool { return followerApplied(fs) == total+1 })
	select {
	case rec := <-acked:
		t.Fatalf("the primary answered %d with its apply held", rec.Code)
	default:
	}
	if rec, out := do(t, fs, "POST", "/replication/promote", ""); rec.Code != http.StatusOK || out["applied_seq"].(float64) != float64(total+1) {
		t.Fatalf("promote in the window: code %d body %s", rec.Code, rec.Body)
	}
	unpin()
	<-acked // the old primary finishes its write either way; fencing is not under test here
	applied = append(applied, last)
	if got, exp := queryProb(t, fs, boolQ), scratchProbAnyOrder(t, applied, boolQ); math.Abs(got-exp) > 1e-12 {
		t.Fatalf("promoted in the window: answer %v, from-scratch %v", got, exp)
	}
	// And it continues the line past the frame it took over mid-apply.
	rec, out := do(t, fs, "POST", "/update", `{"mutations": [{"op": "reweight", "rel": "Adv", "vals": [1, 999], "weight": 1.5}]}`)
	if rec.Code != http.StatusOK || out["seq"].(float64) != float64(total+2) {
		t.Fatalf("write after promotion in the window: code %d body %s", rec.Code, rec.Body)
	}
}

// TestFollowerApplyRetrySurvivesPersistedFrame: a transient failure between
// the local WAL append and the index apply leaves the frame persisted but
// unapplied, and the reconnect refetches the same sequence number. The retry
// must apply the frame (exactly once), not livelock forever on the WAL's
// monotonicity check.
func TestFollowerApplyRetrySurvivesPersistedFrame(t *testing.T) {
	dir := t.TempDir()
	_, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	fs, f, _ := replFollowerServer(t, filepath.Join(dir, "replica"), FollowerConfig{
		PrimaryURL: pts.URL,
	})
	rec, err := core.EncodeMutations(replSteps[0].muts)
	if err != nil {
		t.Fatal(err)
	}
	// The aborted first attempt: frame 1 persisted to the local WAL, but
	// appliedSeq never advanced.
	if err := f.log.AppendSeq(1, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := followerApplied(fs); got != 0 {
		t.Fatalf("precondition: appliedSeq %d, want 0", got)
	}
	// The refetched frame arrives again; before the idempotent-append fix this
	// failed with "wal: non-monotone sequence" on every retry.
	if err := f.applyFrame(1, rec); err != nil {
		t.Fatalf("retrying a persisted frame: %v", err)
	}
	if got := followerApplied(fs); got != 1 {
		t.Fatalf("appliedSeq %d after retry, want 1", got)
	}
	got := queryProb(t, fs, boolQ)
	exp := scratchProb(t, replSteps[0].muts, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("retried follower answer %v, from-scratch %v (double apply?)", got, exp)
	}
}

// TestPromoteStopsFollowerSnapshotter: promotion keeps the node's one
// snapshotter. No second one may start — it would race the first on the same
// WAL dir and snapshot file — and the one that runs must keep labelling
// snapshots with the applied position as post-promotion writes move it.
func TestPromoteStopsFollowerSnapshotter(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	fdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, fdir, FollowerConfig{
		LiveConfig: LiveConfig{SnapshotInterval: 20 * time.Millisecond},
		PrimaryURL: pts.URL,
	})
	if rec, _ := do(t, ps, "POST", "/update", replSteps[0].body); rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 1 })
	// Let the follower snapshotter run at least once while it legitimately owns
	// the snapshot file.
	time.Sleep(60 * time.Millisecond)

	killServer(pts)
	if rec, _ := do(t, fs, "POST", "/replication/promote", ""); rec.Code != http.StatusOK {
		t.Fatalf("promote: %d", rec.Code)
	}
	if fs.live != f {
		t.Fatal("promotion replaced the node's durable state: two snapshotters share its WAL dir")
	}
	// Post-promotion writes, a Live-owned snapshot, then crash-recovery: the
	// snapshot's covered sequence must agree with its contents.
	var applied []core.Mutation
	applied = append(applied, replSteps[0].muts...)
	for _, step := range replSteps[1:] {
		if rec, _ := do(t, fs, "POST", "/update", step.body); rec.Code != http.StatusOK {
			t.Fatalf("post-promote update: %d", rec.Code)
		}
		applied = append(applied, step.muts...)
	}
	if err := f.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, seq, err := mvindex.LoadFileSeq(filepath.Join(fdir, "index.snap")); err != nil || seq != 4 {
		t.Fatalf("post-promotion snapshot covers seq %d, %v; want 4", seq, err)
	}
	if err := f.log.Close(); err != nil {
		t.Fatal(err)
	}
	ix, l2, err := OpenLive(LiveConfig{WALDir: fdir, SnapshotPath: filepath.Join(fdir, "index.snap")},
		func() (*mvindex.Index, error) { return nil, fmt.Errorf("recovery must come from the snapshot") })
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewWith(ix, Config{})
	s2.EnableLive(l2)
	t.Cleanup(func() { l2.Close() })
	got := queryProb(t, s2, boolQ)
	exp := scratchProb(t, applied, boolQ)
	if math.Abs(got-exp) > 1e-12 {
		t.Fatalf("recovered promoted node answer %v, from-scratch %v", got, exp)
	}
}

// TestFollowerApplyFailureFailsClosed: a shipped frame that fails to apply on
// the follower fails it closed like a primary — /query and /readyz answer
// 503 "index" — and from then on neither the snapshot path (ticker or
// drain) nor a re-shipped frame touches the half-patched index: the snapshot
// file, the local WAL and appliedSeq stay as the failure left them, so a
// restart from the same dir recovers the primary's numbers.
func TestFollowerApplyFailureFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ps, _, pts := replPrimaryServer(t, filepath.Join(dir, "primary"), ReplicationConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	rdir := filepath.Join(dir, "replica")
	fs, f, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	if rec, _ := do(t, ps, "POST", "/update", replSteps[0].body); rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	waitReplication(t, "catch-up", func() bool { return followerApplied(fs) == 1 })
	snapPath := filepath.Join(rdir, "index.snap")
	snapBefore, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	fs.ix.FailCompile(errors.New("injected compile failure"))
	fs.mu.Unlock()
	if rec, _ := do(t, ps, "POST", "/update", replSteps[1].body); rec.Code != http.StatusOK {
		t.Fatalf("update: %d", rec.Code)
	}
	waitReplication(t, "follower fails closed", func() bool { return fs.failed.Load() != nil })
	for _, p := range []struct{ method, path, body string }{
		{"POST", "/query", fmt.Sprintf(`{"query": %q}`, boolQ)},
		{"GET", "/readyz", ""},
	} {
		if rec, out := do(t, fs, p.method, p.path, p.body); rec.Code != http.StatusServiceUnavailable || out["reason"] != "index" {
			t.Fatalf("%s %s on a failed follower: code %d body %s", p.method, p.path, rec.Code, rec.Body)
		}
	}

	// The snapshot ticker's and the drain's snapshot refuse; a re-shipped
	// frame is refused even once its apply would succeed.
	var failure *IndexFailure
	if err := f.Snapshot(); !errors.As(err, &failure) {
		t.Fatalf("snapshot of a failed follower: %v", err)
	}
	fs.mu.Lock()
	fs.ix.FailCompile(nil)
	fs.mu.Unlock()
	frame, err := core.EncodeMutations(replSteps[1].muts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.applyFrame(2, frame); !errors.As(err, &failure) {
		t.Fatalf("re-shipped frame on a failed follower: %v", err)
	}
	if got := followerApplied(fs); got != 1 {
		t.Fatalf("appliedSeq %d after the failure, want 1", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if snapAfter, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(snapAfter, snapBefore) {
		t.Fatalf("the snapshot file changed after the failure (%v)", err)
	}
	var seqs []uint64
	if err := wal.Replay(rdir, 0, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil || len(seqs) != 2 || seqs[1] != 2 {
		t.Fatalf("local WAL after the failure holds frames %v (%v), want 1 and 2", seqs, err)
	}

	// Restart from the same dir: snapshot + local WAL recover the failed
	// batch, and the follower answers what the primary answers.
	fs2, _, _ := replFollowerServer(t, rdir, FollowerConfig{PrimaryURL: pts.URL})
	if rec, _ := do(t, fs2, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after the restart: %d", rec.Code)
	}
	if got, want := queryProb(t, fs2, boolQ), queryProb(t, ps, boolQ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("restarted follower answer %v, primary %v", got, want)
	}
}

// scratchProbAnyOrder rebuilds from mutations whose relative order across
// writers is unknown but irrelevant (disjoint inserts commute).
func scratchProbAnyOrder(t *testing.T, muts []core.Mutation, query string) float64 {
	t.Helper()
	return scratchProb(t, muts, query)
}
