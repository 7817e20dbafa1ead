package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/wal"
)

// Live-update subsystem: the server's write path. Mutation batches are
// validated against the current source MVDB and appended to a write-ahead
// log; then the frame's fsync and the incremental index apply
// (mvindex.ApplyMutations) run side by side, and the batch is acknowledged
// only after both — so an acknowledged mutation survives any crash, and a
// write costs the longer of the two, not their sum. A background snapshotter
// periodically persists the index (with the covered WAL sequence number) and
// truncates the log; recovery loads the latest snapshot and replays the WAL
// tail.

// LiveConfig configures the write path.
type LiveConfig struct {
	// WALDir holds the write-ahead log segments. Required.
	WALDir string
	// SnapshotPath is where the periodic snapshotter (and recovery) keep the
	// index snapshot. Empty disables snapshots — recovery then replays the
	// whole log against a freshly built index.
	SnapshotPath string
	// SnapshotInterval is the period of the background snapshotter; 0
	// disables it (snapshots then happen only on Close).
	SnapshotInterval time.Duration
	// GroupCommit is the ceiling on the WAL's wait for concurrent writers
	// (see wal.Options); a lone writer never waits.
	GroupCommit time.Duration
	// MaxPendingUpdates caps update requests waiting for the writer lock,
	// separately from the reader admission semaphore; excess requests are
	// shed with 503. 0 means 16.
	MaxPendingUpdates int
	// Hooks inject WAL faults for crash testing.
	Hooks wal.Hooks
}

func (c LiveConfig) maxPending() int {
	if c.MaxPendingUpdates > 0 {
		return c.MaxPendingUpdates
	}
	return 16
}

// Live owns the write path: the WAL, the writer lock, the snapshotter and
// the mutation counters.
type Live struct {
	cfg LiveConfig
	log *wal.Log
	srv *Server

	// updateMu serializes the write path (validate → append → apply). It is
	// held in lock order before the server's index lock. The fsync of a frame
	// starts at its append and is awaited after release, so it overlaps the
	// apply, and a slow one is shared by the writers that follow.
	updateMu sync.Mutex
	sem      chan struct{} // pending-writer admission

	appliedSeq uint64 // WAL sequence applied to the index (under updateMu)
	snapSeq    atomic.Uint64
	snapTime   atomic.Int64 // unix nanos of the last snapshot; 0 = never

	batches, mutations        atomic.Uint64
	inserts, deletes          atomic.Uint64
	reweights                 atomic.Uint64
	weightOnlyBatches         atomic.Uint64
	blocksReused, blocksRecom atomic.Uint64
	augBlocks, augNodes       atomic.Uint64 // per-block augmentation work
	applyNs, applyMaxNs       atomic.Uint64 // in-process index apply time (MaintStats.Duration)

	stop     chan struct{}
	snapDone chan struct{}
}

// storeMax raises a to v unless it already holds at least v. Acked writers
// reach their counters after updateMu is released, so two may race here.
func storeMax(a *atomic.Uint64, v uint64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// OpenLive recovers the live state: the latest snapshot (when present and
// loadable) or a freshly built index, plus a replay of the WAL tail — every
// logged batch with a sequence number above the snapshot's. Replayed batches
// are concatenated and applied as one ApplyMutations call (one re-translate
// and one incremental recompile instead of one per batch; the WAL's
// sequential semantics are preserved because batches validate and apply in
// order). The returned Live must be attached with Server.EnableLive.
func OpenLive(cfg LiveConfig, build func() (*mvindex.Index, error)) (*mvindex.Index, *Live, error) {
	if cfg.WALDir == "" {
		return nil, nil, fmt.Errorf("server: LiveConfig.WALDir is required")
	}
	var (
		ix      *mvindex.Index
		lastSeq uint64
	)
	if cfg.SnapshotPath != "" {
		if _, err := os.Stat(cfg.SnapshotPath); err == nil {
			var lerr error
			ix, lastSeq, lerr = mvindex.LoadFileSeq(cfg.SnapshotPath)
			if lerr != nil {
				return nil, nil, fmt.Errorf("server: loading snapshot %s: %w", cfg.SnapshotPath, lerr)
			}
		}
	}
	if ix == nil {
		var err error
		ix, err = build()
		if err != nil {
			return nil, nil, err
		}
		lastSeq = 0
	}

	// Replay the tail into one concatenated batch before opening the log for
	// writing (Replay is read-only and tolerates the torn tail).
	var pending []core.Mutation
	var replayed uint64
	err := wal.Replay(cfg.WALDir, lastSeq, func(seq uint64, rec []byte) error {
		batch, err := core.DecodeMutations(rec)
		if err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		pending = append(pending, batch...)
		replayed = seq
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: replaying WAL: %w", err)
	}
	if len(pending) > 0 {
		if _, err := ix.ApplyMutations(pending); err != nil {
			return nil, nil, fmt.Errorf("server: applying replayed WAL tail: %w", err)
		}
	}

	log, err := wal.Open(cfg.WALDir, wal.Options{GroupCommit: cfg.GroupCommit, Hooks: cfg.Hooks})
	if err != nil {
		return nil, nil, err
	}
	l := &Live{
		cfg:  cfg,
		log:  log,
		sem:  make(chan struct{}, cfg.maxPending()),
		stop: make(chan struct{}),
	}
	if replayed > lastSeq {
		lastSeq = replayed
	}
	// A snapshot that covered the whole (since-truncated) log reopens the WAL
	// with no frames; re-anchor so the next Append cannot re-issue a covered
	// sequence number, which a later replay would filter out.
	log.SkipTo(lastSeq)
	l.appliedSeq = lastSeq
	l.snapSeq.Store(lastSeq)
	return ix, l, nil
}

// EnableLive attaches the write path to the server: the (always-routed)
// /update and /reweight endpoints start acking, the write-path stats appear,
// and (when configured) the background snapshotter runs. Called once before
// serving on a standalone or primary node — or at promotion time on a
// follower, which is why the endpoints are routed up front and gate on the
// attached write path instead of being registered here.
func (s *Server) EnableLive(l *Live) {
	l.srv = s
	s.live.Store(l)
	if l.cfg.SnapshotInterval > 0 {
		l.snapDone = make(chan struct{})
		go l.snapshotLoop()
	}
}

// newLiveFromLog builds a write path around an already-open WAL — the
// promotion path: a follower's local log (holding every frame it applied
// under the primary's numbering) becomes the log it appends its own writes
// to, so the sequence numbers continue the primary's line.
func newLiveFromLog(cfg LiveConfig, log *wal.Log, appliedSeq uint64) *Live {
	l := &Live{
		cfg:  cfg,
		log:  log,
		sem:  make(chan struct{}, cfg.maxPending()),
		stop: make(chan struct{}),
	}
	l.appliedSeq = appliedSeq
	l.snapSeq.Store(appliedSeq)
	return l
}

// AppliedSeq returns the WAL sequence number applied to the index.
func (l *Live) AppliedSeq() uint64 {
	l.updateMu.Lock()
	defer l.updateMu.Unlock()
	return l.appliedSeq
}

// encodeReplicationSnapshot cuts a bootstrap snapshot at a durable boundary:
// it syncs the log first (under the writer lock, so the applied position
// cannot move), then encodes the index with that position. Without the sync,
// a bootstrapped follower could carry frames that vanish in a primary crash
// — state no recovered primary would ever have.
func (l *Live) encodeReplicationSnapshot() (uint64, []byte, error) {
	l.updateMu.Lock()
	defer l.updateMu.Unlock()
	if f := l.srv.failed.Load(); f != nil {
		return 0, nil, f
	}
	if err := l.log.Sync(); err != nil {
		return 0, nil, err
	}
	seq := l.appliedSeq
	s := l.srv
	s.mu.RLock()
	var buf bytes.Buffer
	err := s.ix.SaveSeq(&buf, seq)
	s.mu.RUnlock()
	if err != nil {
		return 0, nil, err
	}
	return seq, buf.Bytes(), nil
}

// Close stops the snapshotter, takes a final snapshot (when configured) and
// durably closes the WAL. Call during drain, after HTTP shutdown.
func (l *Live) Close() error {
	close(l.stop)
	if l.snapDone != nil {
		<-l.snapDone
	}
	var err error
	if l.cfg.SnapshotPath != "" && l.srv.failed.Load() == nil {
		err = l.Snapshot()
	}
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Live) snapshotLoop() {
	defer close(l.snapDone)
	t := time.NewTicker(l.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if err := l.Snapshot(); err != nil {
				l.srv.logf("server: snapshot: %v", err)
			}
		}
	}
}

// Snapshot persists the index with the WAL sequence number it covers and
// truncates the covered log prefix. Writers stall for the duration (they
// need updateMu); readers keep going until the brief index read lock of the
// encode phase. The ordering — rotate (which fsyncs), then write the
// snapshot, then remove old segments — guarantees no acknowledged frame is
// lost: a crash before the rename keeps the old snapshot plus the full log;
// after it, the new snapshot covers everything the removed segments held.
func (l *Live) Snapshot() error {
	if l.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no snapshot path configured")
	}
	l.updateMu.Lock()
	if f := l.srv.failed.Load(); f != nil {
		l.updateMu.Unlock()
		return f
	}
	seq := l.appliedSeq
	gen, err := l.log.Rotate()
	if err != nil {
		l.updateMu.Unlock()
		return err
	}
	l.srv.mu.RLock()
	ix := l.srv.ix
	err = ix.SaveFileSeq(l.cfg.SnapshotPath, seq)
	l.srv.mu.RUnlock()
	l.updateMu.Unlock()
	if err != nil {
		return err
	}
	l.snapSeq.Store(seq)
	l.snapTime.Store(time.Now().UnixNano())
	return l.log.RemoveBelow(gen)
}

// mutationJSON is the wire form of one mutation.
type mutationJSON struct {
	Op     string  `json:"op"`
	Rel    string  `json:"rel"`
	Vals   []any   `json:"vals"`
	Weight float64 `json:"weight,omitempty"`
}

type updateRequest struct {
	Mutations []mutationJSON `json:"mutations"`
}

type reweightRequest struct {
	Rel    string  `json:"rel"`
	Vals   []any   `json:"vals"`
	Weight float64 `json:"weight"`
}

// jsonValue converts a decoded JSON scalar into an engine value: strings map
// to Str, integral numbers to Int.
func jsonValue(v any) (engine.Value, error) {
	switch x := v.(type) {
	case string:
		return engine.Str(x), nil
	case float64:
		if x != math.Trunc(x) || math.IsInf(x, 0) {
			return engine.Value{}, fmt.Errorf("non-integer value %v", x)
		}
		return engine.Int(int64(x)), nil
	default:
		return engine.Value{}, fmt.Errorf("unsupported value %v (%T)", v, v)
	}
}

func toMutations(in []mutationJSON) ([]core.Mutation, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("empty mutation list")
	}
	out := make([]core.Mutation, len(in))
	for i, mj := range in {
		vals := make([]engine.Value, len(mj.Vals))
		for j, v := range mj.Vals {
			ev, err := jsonValue(v)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			vals[j] = ev
		}
		out[i] = core.Mutation{Op: core.MutationOp(mj.Op), Rel: mj.Rel, Vals: vals, Weight: mj.Weight}
	}
	return out, nil
}

func (l *Live) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !l.srv.decodeJSON(w, r, &req) {
		return
	}
	batch, err := toMutations(req.Mutations)
	if err != nil {
		l.srv.httpError(w, http.StatusBadRequest, "", "bad mutations: %v", err)
		return
	}
	l.applyBatch(w, batch)
}

// handleReweight is sugar for an update batch of one reweight mutation: it
// goes through the same validate → WAL → apply → fsync path, so a
// reweight survives crashes like any other mutation.
func (l *Live) handleReweight(w http.ResponseWriter, r *http.Request) {
	var req reweightRequest
	if !l.srv.decodeJSON(w, r, &req) {
		return
	}
	vals := make([]engine.Value, len(req.Vals))
	for i, v := range req.Vals {
		ev, err := jsonValue(v)
		if err != nil {
			l.srv.httpError(w, http.StatusBadRequest, "", "bad vals: %v", err)
			return
		}
		vals[i] = ev
	}
	l.applyBatch(w, []core.Mutation{{Op: core.MutReweight, Rel: req.Rel, Vals: vals, Weight: req.Weight}})
}

// applyBatch runs the write path for one validated-shape batch: admission,
// semantic validation under the writer lock, WAL append, then the durability
// fsync beside the incremental index maintenance, and the acknowledgment
// after both.
func (l *Live) applyBatch(w http.ResponseWriter, batch []core.Mutation) {
	s := l.srv
	if s.draining.Load() {
		s.httpError(w, http.StatusConflict, "draining", "server is draining; not accepting updates")
		return
	}
	select {
	case l.sem <- struct{}{}:
		defer func() { <-l.sem }()
	default:
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusServiceUnavailable, "overload",
			"too many pending updates (max %d); retry later", l.cfg.maxPending())
		return
	}
	t0 := time.Now()

	l.updateMu.Lock()
	if s.indexFailed(w) {
		l.updateMu.Unlock()
		return
	}
	// Validate against the current source before the WAL append, so the log
	// only ever holds batches that apply cleanly on recovery.
	s.mu.RLock()
	ix := s.ix
	src := ix.Source()
	var verr error
	if src == nil {
		verr = fmt.Errorf("index has no source MVDB; updates are disabled")
	} else {
		verr = src.ValidateBatch(batch)
	}
	s.mu.RUnlock()
	if verr != nil {
		l.updateMu.Unlock()
		s.httpError(w, http.StatusBadRequest, "", "invalid batch: %v", verr)
		return
	}
	rec, err := core.EncodeMutations(batch)
	var seq uint64
	if err == nil {
		seq, err = l.log.Append(rec)
	}
	if err != nil {
		l.updateMu.Unlock()
		s.httpError(w, http.StatusInternalServerError, "wal", "logging batch: %v", err)
		return
	}
	// The frame's fsync starts here and runs beside the apply. Readers may
	// see the batch before it is durable; its writer may not.
	synced := l.log.StartSync()

	s.mu.Lock()
	st, err := ix.ApplyMutations(batch)
	if err != nil {
		// The batch validated and is in the WAL, but failed to apply (e.g.
		// a compile failure) — possibly after the delta translation patched
		// the index's databases. Nothing served from here on could be
		// trusted: fail closed, inside the index lock, so no reader sees the
		// index again; a restart rebuilds it from snapshot + WAL.
		s.failClosed(seq, err)
	}
	s.mu.Unlock()
	if err != nil {
		l.updateMu.Unlock()
		_ = synced() // nothing is acknowledged; only wait the commit out
		s.indexFailed(w)
		return
	}
	l.appliedSeq = seq
	l.updateMu.Unlock()

	// Durability point: acknowledge only after the frame is on disk. The
	// writer lock is released first, so the writers that follow append while
	// a slow fsync is in flight and share the next one (group commit).
	if err := synced(); err != nil {
		s.httpError(w, http.StatusInternalServerError, "wal", "syncing batch: %v", err)
		return
	}

	l.batches.Add(1)
	l.mutations.Add(uint64(len(batch)))
	for _, mu := range batch {
		switch mu.Op {
		case core.MutInsert:
			l.inserts.Add(1)
		case core.MutDelete:
			l.deletes.Add(1)
		case core.MutReweight:
			l.reweights.Add(1)
		}
	}
	if st.WeightOnly {
		l.weightOnlyBatches.Add(1)
	}
	l.blocksReused.Add(uint64(st.Reused))
	l.blocksRecom.Add(uint64(st.Recompiled))
	l.augBlocks.Add(uint64(st.AugmentedBlocks))
	l.augNodes.Add(uint64(st.AugmentedNodes))
	d := uint64(st.Duration)
	l.applyNs.Add(d)
	storeMax(&l.applyMaxNs, d)

	s.writeJSON(w, map[string]any{
		"seq":              seq,
		"applied":          st.Applied,
		"weight_only":      st.WeightOnly,
		"full":             st.Full,
		"blocks":           st.Blocks,
		"reused":           st.Reused,
		"recompiled":       st.Recompiled,
		"augmented_blocks": st.AugmentedBlocks,
		"augmented_nodes":  st.AugmentedNodes,
		"millis":           float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// liveStats contributes the write-path section of GET /stats.
func (l *Live) stats() map[string]any {
	ws := l.log.Stats()
	var snapAge any
	if t := l.snapTime.Load(); t > 0 {
		snapAge = time.Since(time.Unix(0, t)).Seconds()
	}
	return map[string]any{
		"wal": map[string]any{
			"frames":     ws.Frames,
			"bytes":      ws.Bytes,
			"segments":   ws.Segments,
			"generation": ws.Generation,
			"synced_seq": ws.SyncedSeq,
			// fsync_frames/fsyncs is the group-commit batch size; ack_wait_ns
			// per batch is what the fsync cost a writer beyond its apply.
			"fsyncs":       ws.Fsyncs,
			"fsync_frames": ws.FsyncFrames,
			"fsync_ns":     ws.FsyncNs,
			"ack_wait_ns":  ws.AckWaitNs,
		},
		"snapshot_seq":          l.snapSeq.Load(),
		"last_snapshot_age_sec": snapAge,
		"applied": map[string]any{
			"batches":             l.batches.Load(),
			"mutations":           l.mutations.Load(),
			"inserts":             l.inserts.Load(),
			"deletes":             l.deletes.Load(),
			"reweights":           l.reweights.Load(),
			"weight_only_batches": l.weightOnlyBatches.Load(),
			"blocks_reused":       l.blocksReused.Load(),
			"blocks_recompiled":   l.blocksRecom.Load(),
			"augmented_blocks":    l.augBlocks.Load(),
			"augmented_nodes":     l.augNodes.Load(),
			"apply_ns":            l.applyNs.Load(),
			"apply_max_ns":        l.applyMaxNs.Load(),
		},
	}
}
