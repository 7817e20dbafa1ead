package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
	"mvdb/internal/replica"
	"mvdb/internal/wal"
)

// Replication wiring. A primary ships its WAL through internal/replica's
// snapshot and stream endpoints; a follower bootstraps from the snapshot,
// persists every shipped frame in its own WAL under the primary's sequence
// numbers, applies it through the incremental mvindex.ApplyMutations path
// (which falls back to a full recompile on core.ErrDeltaFallback and bumps
// the cross-query cache epoch on every commit), and serves reads only while
// within its staleness bound. Promotion turns the follower's local log into
// the write path of a new primary under a bumped, persisted fencing term.

// ReplicationConfig tunes the primary side of replication.
type ReplicationConfig struct {
	// HeartbeatInterval paces stream heartbeats; 0 means the replica
	// package default.
	HeartbeatInterval time.Duration
	// Hooks inject stream faults for chaos testing.
	Hooks replica.Hooks
}

// FollowerConfig configures a replica node.
type FollowerConfig struct {
	// Dir holds the follower's local state: its WAL (frames received from
	// the primary, under the primary's numbering), its index snapshot and
	// its fencing term. Required.
	Dir string
	// PrimaryURL is the primary's base URL, e.g. http://10.0.0.1:8080.
	// Required.
	PrimaryURL string
	// SnapshotPath defaults to Dir/index.snap.
	SnapshotPath string
	// MaxStaleness bounds how stale served reads may be: when the follower
	// has not observed itself caught up with the primary's durable position
	// for longer than this, evaluation endpoints answer 503 + Retry-After
	// instead of silently stale probabilities. 0 disables the gate.
	MaxStaleness time.Duration
	// SnapshotInterval is the period of local index snapshots (which also
	// truncate the local WAL); 0 snapshots only at bootstrap, promotion and
	// Close.
	SnapshotInterval time.Duration
	// GroupCommit is the local WAL's ceiling on waiting for concurrent
	// writers (see wal.Options). The fetch loop is a lone writer and never
	// waits; the value matters once the node is promoted.
	GroupCommit time.Duration
	// HeartbeatTimeout is the stream stall detector; 0 means the replica
	// package default.
	HeartbeatTimeout time.Duration
	// MinBackoff and MaxBackoff bound the reconnect backoff; 0 means the
	// replica package defaults.
	MinBackoff, MaxBackoff time.Duration
	// BootstrapTimeout bounds one snapshot fetch; 0 means 2 minutes.
	BootstrapTimeout time.Duration
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
}

func (c FollowerConfig) snapPath() string {
	if c.SnapshotPath != "" {
		return c.SnapshotPath
	}
	return c.Dir + "/index.snap"
}

func (c FollowerConfig) bootstrapTimeout() time.Duration {
	if c.BootstrapTimeout > 0 {
		return c.BootstrapTimeout
	}
	return 2 * time.Minute
}

// replState is the server's replication machinery, for either role.
type replState struct {
	dir      string
	snapPath string

	pcfg ReplicationConfig
	fcfg FollowerConfig

	// roleMu guards role transitions (promotion, demotion) and the
	// primary/follower pointers below.
	roleMu   sync.Mutex
	primary  *replica.Primary
	follower *replica.Follower
	promoted bool

	// Follower-side state. applyMu serializes frame application and local
	// snapshots; appliedSeq is the local WAL position applied to the index.
	flog       *wal.Log
	applyMu    sync.Mutex
	appliedSeq uint64

	snapStop, snapDone chan struct{}
}

// FollowerState is the recovered (or bootstrapped) state of a replica node,
// produced by OpenFollower and attached with Server.EnableFollower.
type FollowerState struct {
	cfg        FollowerConfig
	log        *wal.Log
	term       uint64
	appliedSeq uint64
	srv        *Server // set by EnableFollower
	closed     atomic.Bool
}

// AppliedSeq returns the WAL sequence number recovered into the index.
func (f *FollowerState) AppliedSeq() uint64 { return f.appliedSeq }

// OpenFollower recovers or bootstraps a replica node's state: the local
// snapshot plus local WAL tail when present (a restart), otherwise a checksum-
// verified snapshot fetched from the primary (first start), persisted locally
// before use. The returned index is attached with NewWith + EnableFollower.
func OpenFollower(cfg FollowerConfig) (*mvindex.Index, *FollowerState, error) {
	if cfg.Dir == "" || cfg.PrimaryURL == "" {
		return nil, nil, fmt.Errorf("server: FollowerConfig.Dir and PrimaryURL are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	term, err := replica.LoadTerm(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: loading fencing term: %w", err)
	}

	var (
		ix      *mvindex.Index
		lastSeq uint64
	)
	if _, err := os.Stat(cfg.snapPath()); err == nil {
		ix, lastSeq, err = mvindex.LoadFileSeq(cfg.snapPath())
		if err != nil {
			return nil, nil, fmt.Errorf("server: loading local snapshot %s: %w", cfg.snapPath(), err)
		}
	} else {
		// First start: bootstrap from the primary.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.bootstrapTimeout())
		snap, ferr := replica.FetchSnapshot(ctx, cfg.Client, cfg.PrimaryURL, term)
		cancel()
		if ferr != nil {
			return nil, nil, fmt.Errorf("server: bootstrapping from %s: %w", cfg.PrimaryURL, ferr)
		}
		ix, lastSeq, err = mvindex.ReadSeq(bytes.NewReader(snap.Data))
		if err != nil {
			return nil, nil, fmt.Errorf("server: decoding bootstrap snapshot: %w", err)
		}
		if lastSeq != snap.Seq {
			return nil, nil, fmt.Errorf("server: bootstrap snapshot seq %d disagrees with header %d", lastSeq, snap.Seq)
		}
		if snap.Term > term {
			term = snap.Term
			if err := replica.SaveTerm(cfg.Dir, term); err != nil {
				return nil, nil, err
			}
		}
		// Persist before serving: a crash right after bootstrap must recover
		// locally, not refetch a now-different snapshot mid-line.
		if err := ix.SaveFileSeq(cfg.snapPath(), lastSeq); err != nil {
			return nil, nil, fmt.Errorf("server: persisting bootstrap snapshot: %w", err)
		}
	}

	// Replay the local WAL tail (frames received before the last shutdown or
	// crash), exactly like primary recovery.
	var pending []core.Mutation
	replayed := lastSeq
	err = wal.Replay(cfg.Dir, lastSeq, func(seq uint64, rec []byte) error {
		batch, err := core.DecodeMutations(rec)
		if err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		pending = append(pending, batch...)
		replayed = seq
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: replaying local WAL: %w", err)
	}
	if len(pending) > 0 {
		if _, err := ix.ApplyMutations(pending); err != nil {
			return nil, nil, fmt.Errorf("server: applying replayed local WAL tail: %w", err)
		}
	}

	log, err := wal.Open(cfg.Dir, wal.Options{GroupCommit: cfg.GroupCommit})
	if err != nil {
		return nil, nil, err
	}
	return ix, &FollowerState{cfg: cfg, log: log, term: term, appliedSeq: replayed}, nil
}

// EnableFollower attaches replica state to the server and starts tailing the
// primary. The server serves reads (subject to the staleness bound) and
// answers 503 not-primary on writes until promoted.
func (s *Server) EnableFollower(f *FollowerState) {
	f.srv = s
	rs := &replState{
		dir:        f.cfg.Dir,
		snapPath:   f.cfg.snapPath(),
		fcfg:       f.cfg,
		flog:       f.log,
		appliedSeq: f.appliedSeq,
	}
	s.repl = rs
	s.term.Store(f.term)
	s.role.Store(int32(roleFollower))
	rs.follower = replica.StartFollower(replica.FollowerConfig{
		Primary:          f.cfg.PrimaryURL,
		Client:           f.cfg.Client,
		Term:             s.term.Load,
		After:            f.appliedSeq,
		Apply:            rs.applyFrame(s),
		Bootstrap:        rs.rebootstrap(s),
		HeartbeatTimeout: f.cfg.HeartbeatTimeout,
		MinBackoff:       f.cfg.MinBackoff,
		MaxBackoff:       f.cfg.MaxBackoff,
		Logf:             s.logf,
	})
	if f.cfg.SnapshotInterval > 0 {
		rs.snapStop = make(chan struct{})
		rs.snapDone = make(chan struct{})
		go rs.snapshotLoop(s, f.cfg.SnapshotInterval)
	}
}

// EnableReplicationPrimary turns a live (write-path) server into a
// replication primary: it loads or initializes the fencing term persisted
// beside the WAL and starts answering the replication endpoints. Call after
// EnableLive, before serving.
func (s *Server) EnableReplicationPrimary(l *Live, rcfg ReplicationConfig) error {
	term, err := replica.LoadTerm(l.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("server: loading fencing term: %w", err)
	}
	if term == 0 {
		term = 1
		if err := replica.SaveTerm(l.cfg.WALDir, term); err != nil {
			return err
		}
	}
	s.term.Store(term)
	s.role.Store(int32(rolePrimary))
	rs := &replState{dir: l.cfg.WALDir, snapPath: l.cfg.SnapshotPath, pcfg: rcfg}
	s.repl = rs
	rs.installPrimary(s, l)
	return nil
}

// installPrimary wires the log-shipping side over a write path.
func (rs *replState) installPrimary(s *Server, l *Live) {
	rs.roleMu.Lock()
	defer rs.roleMu.Unlock()
	rs.primary = &replica.Primary{
		Dir:               l.cfg.WALDir,
		Log:               l.log,
		Term:              s.term.Load,
		Horizon:           l.snapSeq.Load,
		Active:            s.shippingActive,
		Snapshot:          l.encodeReplicationSnapshot,
		OnStaleTerm:       s.demote,
		HeartbeatInterval: rs.pcfg.HeartbeatInterval,
		Hooks:             rs.pcfg.Hooks,
		Logf:              s.logf,
	}
}

// shippingActive gates the log-shipping endpoints: streams end when the node
// is demoted, and also when it drains — otherwise a connected follower's
// long-poll would pin graceful shutdown until the drain deadline.
func (s *Server) shippingActive() bool {
	return role(s.role.Load()) == rolePrimary && !s.draining.Load()
}

// applyFrame is the follower's apply path: decode, persist to the local WAL
// under the primary's sequence number, fsync, then apply through the
// incremental maintenance path. WAL-before-apply mirrors the primary: a
// crash between the two replays the frame on restart.
func (rs *replState) applyFrame(s *Server) func(uint64, []byte) error {
	return func(seq uint64, rec []byte) error {
		batch, err := core.DecodeMutations(rec)
		if err != nil {
			return fmt.Errorf("decoding frame %d: %w", seq, err)
		}
		rs.applyMu.Lock()
		defer rs.applyMu.Unlock()
		if f := s.failed.Load(); f != nil {
			// A re-shipped frame must not apply on top of the half-patched
			// index the failure left; only a restart recovers.
			return f
		}
		// A refetched frame can already sit at the tail of the local log: a
		// transient Sync or apply failure aborts the tail after AppendSeq took
		// the frame, and the reconnect re-ships the same sequence number.
		// Re-appending would trip the monotonicity check on every retry and
		// livelock the follower, so skip straight to Sync + apply. (The bytes
		// are identical — same primary frame — so the persisted copy stands.)
		if last := rs.flog.NextSeq() - 1; seq != last {
			if err := rs.flog.AppendSeq(seq, rec); err != nil {
				return err
			}
		}
		if err := rs.flog.Sync(); err != nil {
			return err
		}
		s.mu.Lock()
		_, err = s.ix.ApplyMutations(batch)
		if err != nil {
			// The primary applied this batch, so a failure here means the
			// replica diverged (or hit a resource limit), possibly leaving
			// the index half-patched: fail closed, like the primary, rather
			// than let a re-shipped frame apply on top of it.
			s.failClosed(seq, err)
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("applying frame %d: %w", seq, err)
		}
		rs.appliedSeq = seq
		return nil
	}
}

// rebootstrap refetches a snapshot after the primary answered 410 (our
// cursor predates its log horizon) and swaps it in as the serving index. The
// timeout derives from the fetch loop's context so Follower.Stop — and thus
// promotion, which runs under roleMu — cancels an in-flight fetch instead of
// blocking on it for up to the bootstrap timeout.
func (rs *replState) rebootstrap(s *Server) func(context.Context) (uint64, error) {
	return func(ctx context.Context) (uint64, error) {
		ctx, cancel := context.WithTimeout(ctx, rs.fcfg.bootstrapTimeout())
		defer cancel()
		snap, err := replica.FetchSnapshot(ctx, rs.fcfg.Client, rs.fcfg.PrimaryURL, s.term.Load())
		if err != nil {
			return 0, err
		}
		ix, seq, err := mvindex.ReadSeq(bytes.NewReader(snap.Data))
		if err != nil {
			return 0, fmt.Errorf("decoding snapshot: %w", err)
		}
		// The serving index is swapped wholesale, so the fresh one needs its
		// own cross-query cache (cache epochs do not carry across indexes).
		ix.EnableCache(s.cfg.Cache)
		rs.applyMu.Lock()
		defer rs.applyMu.Unlock()
		s.mu.Lock()
		s.ix = ix
		s.mu.Unlock()
		rs.appliedSeq = seq
		if snap.Term > s.term.Load() {
			s.term.Store(snap.Term)
			if err := replica.SaveTerm(rs.dir, snap.Term); err != nil {
				s.logf("server: persisting term after rebootstrap: %v", err)
			}
		}
		if err := ix.SaveFileSeq(rs.snapPath, seq); err != nil {
			s.logf("server: persisting rebootstrap snapshot: %v", err)
		}
		return seq, nil
	}
}

// localSnapshot persists the follower's index and truncates its local WAL,
// bounding recovery replay — the follower-side mirror of Live.Snapshot. Like
// it, it refuses once the server has failed closed: the index may be
// half-patched, and the WAL is what a restart recovers from.
func (rs *replState) localSnapshot(s *Server) error {
	rs.applyMu.Lock()
	defer rs.applyMu.Unlock()
	if f := s.failed.Load(); f != nil {
		return f
	}
	seq := rs.appliedSeq
	gen, err := rs.flog.Rotate()
	if err != nil {
		return err
	}
	s.mu.RLock()
	err = s.ix.SaveFileSeq(rs.snapPath, seq)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	return rs.flog.RemoveBelow(gen)
}

// stopSnapshotLoop ends the follower snapshot loop, waiting for a mid-flight
// snapshot to finish. Called with roleMu held (which serializes promotion and
// Close, so the channels close exactly once); idempotent.
func (rs *replState) stopSnapshotLoop() {
	if rs.snapStop == nil {
		return
	}
	close(rs.snapStop)
	<-rs.snapDone
	rs.snapStop, rs.snapDone = nil, nil
}

func (rs *replState) snapshotLoop(s *Server, every time.Duration) {
	defer close(rs.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rs.snapStop:
			return
		case <-t.C:
			if err := rs.localSnapshot(s); err != nil {
				s.logf("server: follower snapshot: %v", err)
			}
		}
	}
}

// Close stops the follower machinery: the fetch loop, the snapshot loop, a
// final local snapshot (none once the server has failed closed), and the
// local WAL. If the node was promoted, the write path (Live) owns the log
// now — Close closes that instead.
// Idempotent.
func (f *FollowerState) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	s := f.srv
	if s == nil || s.repl == nil {
		return f.log.Close()
	}
	rs := s.repl
	rs.roleMu.Lock()
	fol, promoted := rs.follower, rs.promoted
	if fol != nil {
		fol.Stop()
	}
	rs.stopSnapshotLoop()
	rs.roleMu.Unlock()
	if promoted {
		if l := s.live.Load(); l != nil {
			return l.Close()
		}
		return nil
	}
	var err error
	if s.failed.Load() == nil {
		err = rs.localSnapshot(s)
	}
	if cerr := f.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// demote fences this node: somebody out there holds a higher term, so stop
// acking writes immediately. Reads keep serving (they are honest as of the
// demotion point); rejoining the topology is an operator decision.
func (s *Server) demote(seen uint64) {
	rs := s.repl
	if rs == nil {
		return
	}
	rs.roleMu.Lock()
	defer rs.roleMu.Unlock()
	if role(s.role.Load()) != rolePrimary {
		return
	}
	s.logf("server: fenced by term %d (own term %d); demoting — writes now answer 503", seen, s.term.Load())
	s.role.Store(int32(roleDemoted))
	s.term.Store(seen)
	// Persist the observed term so a restart cannot resurrect this node as a
	// primary of the superseded line.
	if err := replica.SaveTerm(rs.dir, seen); err != nil {
		s.logf("server: persisting term after demotion: %v", err)
	}
}

// handlePromote turns this follower into the primary: the fetch loop stops,
// the fencing term bumps past every term seen and persists, the local WAL
// becomes the write path, a snapshot pins the new stream horizon, and the
// old primary is told (best effort) that it has been superseded.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	rs := s.repl
	if rs == nil {
		s.httpError(w, http.StatusConflict, "", "replication is not enabled on this node")
		return
	}
	rs.roleMu.Lock()
	defer rs.roleMu.Unlock()
	switch role(s.role.Load()) {
	case roleFollower:
	case rolePrimary:
		s.httpError(w, http.StatusConflict, "", "already the primary (term %d)", s.term.Load())
		return
	default:
		s.httpError(w, http.StatusConflict, "",
			"only a follower can be promoted; this node is a %s", role(s.role.Load()))
		return
	}
	fol := rs.follower
	fol.Stop()
	// Stop the follower-side snapshotter before the write path starts. Left
	// running, it would race Live's snapshotter on the same WAL dir and
	// snapshot file, and — since applyFrame no longer advances appliedSeq —
	// label snapshots mutated by post-promotion writes with a frozen sequence
	// number, so a later recovery would replay frames the snapshot already
	// contains. Live owns snapshotting from here on.
	rs.stopSnapshotLoop()
	newTerm := max(s.term.Load(), fol.PrimaryTerm()) + 1
	if err := replica.SaveTerm(rs.dir, newTerm); err != nil {
		// Without a durable term the fence is void; refuse the promotion
		// (the node stays a — now stale — follower, which is safe).
		s.logf("server: CRITICAL: promotion aborted, cannot persist term: %v", err)
		s.httpError(w, http.StatusInternalServerError, "", "persisting fencing term: %v", err)
		return
	}
	s.term.Store(newTerm)

	rs.applyMu.Lock()
	applied := rs.appliedSeq
	rs.applyMu.Unlock()
	// A follower whose bootstrap snapshot covered everything (no frames
	// shipped since) holds an empty log; without the skip the new primary's
	// first Append would re-issue a sequence number the snapshot already
	// covers, and a post-restart replay would silently drop that frame.
	rs.flog.SkipTo(applied)
	l := newLiveFromLog(LiveConfig{
		WALDir:           rs.dir,
		SnapshotPath:     rs.snapPath,
		SnapshotInterval: rs.fcfg.SnapshotInterval,
		GroupCommit:      rs.fcfg.GroupCommit,
	}, rs.flog, applied)
	s.EnableLive(l)
	rs.primary = &replica.Primary{
		Dir:               rs.dir,
		Log:               rs.flog,
		Term:              s.term.Load,
		Horizon:           l.snapSeq.Load,
		Active:            s.shippingActive,
		Snapshot:          l.encodeReplicationSnapshot,
		OnStaleTerm:       s.demote,
		HeartbeatInterval: rs.pcfg.HeartbeatInterval,
		Logf:              s.logf,
	}
	rs.promoted = true
	s.role.Store(int32(rolePrimary))
	// Pin the stream horizon for our own future followers. Failure is not
	// fatal: the WAL alone still recovers every applied frame.
	if err := l.Snapshot(); err != nil {
		s.logf("server: snapshot after promotion: %v", err)
	}
	// Best effort: fence the old primary right now rather than on its next
	// follower contact.
	go func(url string, term uint64) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := replica.NotifyStaleTerm(ctx, rs.fcfg.Client, url, term); err != nil {
			s.logf("server: notifying old primary %s of term %d: %v", url, term, err)
		}
	}(rs.fcfg.PrimaryURL, newTerm)

	s.logf("server: promoted to primary at term %d (applied seq %d)", newTerm, applied)
	s.writeJSON(w, map[string]any{"role": "primary", "term": newTerm, "applied_seq": applied})
}

// replPrimary returns the log-shipping side, nil when this node is not
// (currently) a primary.
func (s *Server) replPrimary() *replica.Primary {
	rs := s.repl
	if rs == nil {
		return nil
	}
	rs.roleMu.Lock()
	defer rs.roleMu.Unlock()
	return rs.primary
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	p := s.replPrimary()
	if p == nil {
		s.httpError(w, http.StatusServiceUnavailable, "not-primary", "this node does not ship a replication log")
		return
	}
	p.ServeSnapshot(w, r)
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	p := s.replPrimary()
	if p == nil {
		s.httpError(w, http.StatusServiceUnavailable, "not-primary", "this node does not ship a replication log")
		return
	}
	p.ServeStream(w, r)
}

// freshEnough is the staleness contract of follower reads: when the node has
// not observed itself caught up with the primary within the configured
// bound, evaluation endpoints answer 503 + Retry-After instead of silently
// stale probabilities. Non-followers always pass.
func (s *Server) freshEnough(w http.ResponseWriter) bool {
	if role(s.role.Load()) != roleFollower {
		return true
	}
	rs := s.repl
	if rs == nil || rs.fcfg.MaxStaleness <= 0 {
		return true
	}
	rs.roleMu.Lock()
	fol := rs.follower
	rs.roleMu.Unlock()
	if fol == nil {
		return true
	}
	if stale := fol.Staleness(); stale > rs.fcfg.MaxStaleness {
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusServiceUnavailable, "stale",
			"replica is %.1fs behind the primary, beyond the %.1fs staleness bound; retry later or read the primary",
			stale.Seconds(), rs.fcfg.MaxStaleness.Seconds())
		return false
	}
	return true
}

// stats contributes the replication section of GET /stats.
func (rs *replState) stats(s *Server) map[string]any {
	rs.roleMu.Lock()
	fol, p, promoted := rs.follower, rs.primary, rs.promoted
	rs.roleMu.Unlock()
	out := map[string]any{"promoted": promoted}
	if p != nil {
		out["horizon"] = p.Horizon()
	}
	if fol != nil {
		st := fol.Stats()
		out["primary_url"] = rs.fcfg.PrimaryURL
		out["applied_seq"] = st.Applied
		out["primary_synced"] = st.PrimarySynced
		out["primary_term"] = st.PrimaryTerm
		out["lag_frames"] = st.PrimarySynced - st.Applied
		out["staleness_sec"] = fol.Staleness().Seconds()
		out["max_staleness_sec"] = rs.fcfg.MaxStaleness.Seconds()
		out["connected"] = st.Connected
		out["frames_applied"] = st.FramesApplied
		out["duplicates"] = st.Duplicates
		out["gaps"] = st.Gaps
		out["retries"] = st.Retries
		out["bootstraps"] = st.Bootstraps
	}
	return out
}
