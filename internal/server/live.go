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

// The node's durable state, one for every replication role. Live owns the
// local write-ahead log, the applied position, the one writer lock, the
// snapshot path and its one snapshotter, and every index write goes through
// Live.write under that lock: a mutation batch posted to /update (validated
// against the current source MVDB and appended to the WAL; then the frame's
// fsync and the incremental index apply, mvindex.ApplyMutations, run side by
// side, and the batch is acknowledged only after both — so an acknowledged
// mutation survives any crash, and a write costs the longer of the two, not
// their sum), a frame shipped from the primary, and a follower's rebootstrap
// swap (replication.go). The snapshotter periodically persists the index
// (with the covered WAL sequence number) and truncates the log; recovery
// loads the latest snapshot — or, without one, builds the base (a primary)
// or fetches it (a follower) — and replays the WAL tail.

// LiveConfig configures the durable state.
type LiveConfig struct {
	// WALDir holds the write-ahead log segments (and, on a replicated node,
	// the fencing term). Required.
	WALDir string
	// SnapshotPath is where the periodic snapshotter (and recovery) keep the
	// index snapshot. Empty disables snapshots — recovery then replays the
	// whole log against a freshly built index. A follower needs one and
	// defaults it to WALDir/index.snap.
	SnapshotPath string
	// SnapshotInterval is the period of the background snapshotter; 0
	// disables it (snapshots then happen only on Close).
	SnapshotInterval time.Duration
	// GroupCommit is the ceiling on the WAL's wait for concurrent writers
	// (see wal.Options); a lone writer never waits.
	GroupCommit time.Duration
	// Hooks inject WAL faults for crash testing.
	Hooks wal.Hooks
}

// maxPendingUpdates caps update requests waiting for the writer lock,
// separately from the reader admission semaphore; excess requests are shed
// with 503.
const maxPendingUpdates = 16

// Live is a node's durable state: the WAL, the writer lock, the snapshotter
// and the mutation counters.
type Live struct {
	cfg    LiveConfig
	follow *FollowerConfig // the primary this node was opened to replicate; nil unless OpenFollower
	log    *wal.Log
	srv    *Server

	// writeMu serializes every index write (see write) and the snapshotter.
	// It is held in lock order before the server's index lock. The fsync of
	// an /update frame starts at its append and is awaited after release, so
	// it overlaps the apply, and a slow one is shared by the writers that
	// follow.
	writeMu sync.Mutex
	sem     chan struct{} // pending-writer admission

	appliedSeq uint64 // WAL sequence applied to the index (under writeMu)
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
	closed   atomic.Bool
}

// storeMax raises a to v unless it already holds at least v. Acked writers
// reach their counters after writeMu is released, so two may race here.
func storeMax(a *atomic.Uint64, v uint64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// OpenLive recovers a standalone or primary node's durable state, building
// the index when no snapshot exists. The returned Live must be attached with
// Server.EnableLive or Server.EnableReplication.
func OpenLive(cfg LiveConfig, build func() (*mvindex.Index, error)) (*mvindex.Index, *Live, error) {
	if cfg.WALDir == "" {
		return nil, nil, fmt.Errorf("server: LiveConfig.WALDir is required")
	}
	return openLive(cfg, func() (*mvindex.Index, uint64, error) {
		ix, err := build()
		return ix, 0, err
	})
}

// openLive is recovery, for every role: the latest snapshot (when present)
// or else the base — with the sequence number it covers — plus a replay of
// the WAL tail: every logged batch with a sequence number above that.
// Replayed batches are concatenated and applied as one ApplyMutations call
// (one re-translate and one incremental recompile instead of one per batch;
// the WAL's sequential semantics are preserved because batches validate and
// apply in order).
func openLive(cfg LiveConfig, base func() (*mvindex.Index, uint64, error)) (*mvindex.Index, *Live, error) {
	var (
		ix  *mvindex.Index
		seq uint64
		err error
	)
	if _, serr := os.Stat(cfg.SnapshotPath); serr == nil {
		if ix, seq, err = mvindex.LoadFileSeq(cfg.SnapshotPath); err != nil {
			return nil, nil, fmt.Errorf("server: loading snapshot %s: %w", cfg.SnapshotPath, err)
		}
	} else if ix, seq, err = base(); err != nil {
		return nil, nil, err
	}

	// Replay the tail into one concatenated batch before opening the log for
	// writing (Replay is read-only and tolerates the torn tail).
	var pending []core.Mutation
	err = wal.Replay(cfg.WALDir, seq, func(s uint64, rec []byte) error {
		batch, err := core.DecodeMutations(rec)
		if err != nil {
			return fmt.Errorf("frame %d: %w", s, err)
		}
		pending = append(pending, batch...)
		seq = s
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
	// A snapshot that covered the whole (since-truncated) log reopens the WAL
	// with no frames; re-anchor so the next Append cannot re-issue a covered
	// sequence number, which a later replay would filter out.
	log.SkipTo(seq)
	l := &Live{
		cfg:        cfg,
		log:        log,
		sem:        make(chan struct{}, maxPendingUpdates),
		stop:       make(chan struct{}),
		appliedSeq: seq,
	}
	l.snapSeq.Store(seq)
	return ix, l, nil
}

// EnableLive attaches the durable state to the server: the (always-routed)
// /update and /reweight endpoints start acking on a standalone node, the
// write-path stats appear, and (when configured) the background snapshotter
// runs. Call once, before serving; a replicated node attaches its Live
// through EnableReplication, which calls this.
func (s *Server) EnableLive(l *Live) {
	l.srv = s
	s.live = l
	if l.cfg.SnapshotInterval > 0 {
		l.snapDone = make(chan struct{})
		go l.snapshotLoop()
	}
}

// AppliedSeq returns the WAL sequence number applied to the index.
func (l *Live) AppliedSeq() uint64 {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return l.appliedSeq
}

// write is the one path of an index write, under the writer lock. It refuses
// once the server has failed closed. Then prepare makes the write durable (or
// starts to) and returns the sequence number it covers; an error there leaves
// the index as it was. Then apply changes the index under the index write
// lock. An apply error may leave the index half-patched — nothing served from
// it could be trusted — so it fails the server closed, inside the index lock,
// so no reader sees the index again; a restart rebuilds it from snapshot +
// WAL. Otherwise the applied position advances.
func (l *Live) write(prepare func() (uint64, error), apply func() error) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	s := l.srv
	if f := s.failed.Load(); f != nil {
		return f
	}
	seq, err := prepare()
	if err != nil {
		return err
	}
	s.mu.Lock()
	if err = apply(); err != nil {
		s.failClosed(seq, err)
	}
	s.mu.Unlock()
	if err == nil {
		l.appliedSeq = seq
	}
	return err
}

// encodeReplicationSnapshot cuts a bootstrap snapshot at a durable boundary:
// it syncs the log first (under the writer lock, so the applied position
// cannot move), then encodes the index with that position. Without the sync,
// a bootstrapped follower could carry frames that vanish in a primary crash
// — state no recovered primary would ever have.
func (l *Live) encodeReplicationSnapshot() (uint64, []byte, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
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

// Close ends the durable state, in every role: it stops the fetch loop (on a
// follower) and the snapshotter, takes a final snapshot (when configured and
// the server has not failed closed) and durably closes the WAL. Call during
// drain, after HTTP shutdown. Idempotent.
func (l *Live) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	// The fetch loop first, waiting out a frame or a rebootstrap it is
	// applying; Stop is idempotent, and a promotion already called it.
	if rs := l.srv.repl; rs != nil && rs.follower != nil {
		rs.follower.Stop()
	}
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
// need writeMu); readers keep going until the brief index read lock of the
// encode phase. Like every write it refuses once the server has failed
// closed: the index may be half-patched, and the WAL is what a restart
// recovers from. The ordering — rotate (which fsyncs), then write the
// snapshot durably, then remove old segments — guarantees no acknowledged
// frame is lost: a crash before the snapshot's rename is durable keeps the
// old snapshot plus the full log; after it, the new snapshot covers
// everything the removed segments held.
func (l *Live) Snapshot() error {
	if l.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no snapshot path configured")
	}
	l.writeMu.Lock()
	if f := l.srv.failed.Load(); f != nil {
		l.writeMu.Unlock()
		return f
	}
	seq := l.appliedSeq
	gen, err := l.log.Rotate()
	if err != nil {
		l.writeMu.Unlock()
		return err
	}
	l.srv.mu.RLock()
	err = l.srv.ix.SaveFileSeq(l.cfg.SnapshotPath, seq)
	l.srv.mu.RUnlock()
	l.writeMu.Unlock()
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
			"too many pending updates (max %d); retry later", maxPendingUpdates)
		return
	}
	t0 := time.Now()

	var (
		seq    uint64
		st     mvindex.MaintStats
		synced func() error
		code   int // status of a refusal before the index apply; 0 = failed closed
		reason string
	)
	err := l.write(func() (uint64, error) {
		// Validate against the current source before the WAL append, so the
		// log only ever holds batches that apply cleanly on recovery.
		s.mu.RLock()
		src := s.ix.Source()
		var verr error
		if src == nil {
			verr = fmt.Errorf("index has no source MVDB; updates are disabled")
		} else {
			verr = src.ValidateBatch(batch)
		}
		s.mu.RUnlock()
		if verr != nil {
			code = http.StatusBadRequest
			return 0, fmt.Errorf("invalid batch: %w", verr)
		}
		rec, err := core.EncodeMutations(batch)
		if err == nil {
			seq, err = l.log.Append(rec)
		}
		if err != nil {
			code, reason = http.StatusInternalServerError, "wal"
			return 0, fmt.Errorf("logging batch: %w", err)
		}
		// The frame's fsync starts here and runs beside the apply. Readers
		// may see the batch before it is durable; its writer may not.
		synced = l.log.StartSync()
		return seq, nil
	}, func() (err error) {
		st, err = s.ix.ApplyMutations(batch)
		return err
	})
	if err != nil {
		if synced != nil {
			_ = synced() // nothing is acknowledged; only wait the commit out
		}
		if code == 0 {
			s.indexFailed(w)
		} else {
			s.httpError(w, code, reason, "%v", err)
		}
		return
	}

	// Durability point: acknowledge only after the frame is on disk. The
	// writer lock is released first, so the writers that follow append while
	// a slow fsync is in flight and share the next one (group commit).
	if err := synced(); err != nil {
		s.httpError(w, http.StatusInternalServerError, "wal", "syncing batch: %v", err)
		return
	}

	l.count(batch, st)
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

// count adds one applied batch to the /stats counters: an /update or
// /reweight on a primary, a shipped frame on a follower.
func (l *Live) count(batch []core.Mutation, st mvindex.MaintStats) {
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
