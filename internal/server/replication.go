package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
	"mvdb/internal/replica"
)

// Replication wiring. A primary ships its WAL through internal/replica's
// snapshot and stream endpoints; a follower bootstraps from the snapshot,
// persists every shipped frame in its own WAL under the primary's sequence
// numbers, applies it through the incremental mvindex.ApplyMutations path
// (which falls back to a full recompile on core.ErrDeltaFallback and bumps
// the cross-query cache epoch on every commit), and serves reads only while
// within its staleness bound. Both roles keep one durable state, Live
// (live.go): its recovery, writer lock, applied position, snapshotter and
// Close serve either, so promotion is a role flip under a bumped, persisted
// fencing term — the follower's log simply becomes the one its own writes
// append to.

// ReplicationConfig tunes the primary side of replication. On a follower it
// takes effect when the node is promoted.
type ReplicationConfig struct {
	// HeartbeatInterval paces stream heartbeats; 0 means the replica
	// package default.
	HeartbeatInterval time.Duration
	// Hooks inject stream faults for chaos testing.
	Hooks replica.Hooks
}

// FollowerConfig configures a replica node.
type FollowerConfig struct {
	// LiveConfig is the follower's local durable state: WALDir holds its WAL
	// (frames received from the primary, under the primary's numbering), its
	// fencing term and, by default, its index snapshot. WALDir is required.
	LiveConfig
	// PrimaryURL is the primary's base URL, e.g. http://10.0.0.1:8080.
	// Required.
	PrimaryURL string
	// MaxStaleness bounds how stale served reads may be: when the follower
	// has not observed itself caught up with the primary's durable position
	// for longer than this, evaluation endpoints answer 503 + Retry-After
	// instead of silently stale probabilities. 0 disables the gate.
	MaxStaleness time.Duration
	// HeartbeatTimeout is the stream stall detector; 0 means the replica
	// package default.
	HeartbeatTimeout time.Duration
	// MinBackoff and MaxBackoff bound the reconnect backoff; 0 means the
	// replica package defaults.
	MinBackoff, MaxBackoff time.Duration
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
}

// bootstrapTimeout bounds one snapshot fetch.
const bootstrapTimeout = 2 * time.Minute

// replState is the server's replication role machinery.
type replState struct {
	pcfg ReplicationConfig

	// follower is the fetch loop of a node opened as a follower; set before
	// serving and never replaced (promotion only stops it).
	follower *replica.Follower

	// roleMu guards role transitions (promotion, demotion) and the
	// log-shipping side.
	roleMu  sync.Mutex
	primary *replica.Primary
}

// OpenFollower recovers or bootstraps a replica node's durable state: the
// local snapshot plus local WAL tail when present (a restart), otherwise a
// checksum-verified snapshot fetched from the primary (first start),
// persisted locally before use. The returned index and Live are attached
// with NewWith + EnableReplication.
func OpenFollower(cfg FollowerConfig) (*mvindex.Index, *Live, error) {
	if cfg.WALDir == "" || cfg.PrimaryURL == "" {
		return nil, nil, fmt.Errorf("server: FollowerConfig.WALDir and PrimaryURL are required")
	}
	if cfg.SnapshotPath == "" {
		cfg.SnapshotPath = filepath.Join(cfg.WALDir, "index.snap")
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, nil, err
	}
	ix, l, err := openLive(cfg.LiveConfig, func() (*mvindex.Index, uint64, error) {
		term, err := replica.LoadTerm(cfg.WALDir)
		if err != nil {
			return nil, 0, fmt.Errorf("server: loading fencing term: %w", err)
		}
		ix, snap, err := fetchSnapshot(context.Background(), cfg, term)
		if err == nil {
			err = persistBootstrap(cfg, ix, snap, term)
		}
		if err != nil {
			return nil, 0, err
		}
		return ix, snap.Seq, nil
	})
	if err != nil {
		return nil, nil, err
	}
	l.follow = &cfg
	return ix, l, nil
}

// fetchSnapshot downloads a checksum-verified snapshot from the primary and
// decodes it.
func fetchSnapshot(ctx context.Context, cfg FollowerConfig, term uint64) (*mvindex.Index, *replica.Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, bootstrapTimeout)
	defer cancel()
	snap, err := replica.FetchSnapshot(ctx, cfg.Client, cfg.PrimaryURL, term)
	if err != nil {
		return nil, nil, fmt.Errorf("server: bootstrapping from %s: %w", cfg.PrimaryURL, err)
	}
	ix, seq, err := mvindex.ReadSeq(bytes.NewReader(snap.Data))
	if err != nil {
		return nil, nil, fmt.Errorf("server: decoding bootstrap snapshot: %w", err)
	}
	if seq != snap.Seq {
		return nil, nil, fmt.Errorf("server: bootstrap snapshot seq %d disagrees with header %d", seq, snap.Seq)
	}
	return ix, snap, nil
}

// persistBootstrap makes a fetched snapshot the follower's local state: the
// higher fencing term it carries, then the snapshot file. Both are on disk
// before the index serves: a crash right after must recover locally, not
// refetch a now-different snapshot mid-line.
func persistBootstrap(cfg FollowerConfig, ix *mvindex.Index, snap *replica.Snapshot, term uint64) error {
	if snap.Term > term {
		if err := replica.SaveTerm(cfg.WALDir, snap.Term); err != nil {
			return err
		}
	}
	if err := ix.SaveFileSeq(cfg.SnapshotPath, snap.Seq); err != nil {
		return fmt.Errorf("server: persisting bootstrap snapshot: %w", err)
	}
	return nil
}

// EnableReplication attaches a node's durable state (see EnableLive) and puts
// the node in the role it was opened for. A Live from OpenLive makes a
// primary: it loads or initializes the fencing term persisted beside the WAL
// and starts answering the replication endpoints. A Live from OpenFollower
// starts tailing its primary: the server serves reads (subject to the
// staleness bound) and answers 503 not-primary on writes until promoted.
// Call once, before serving.
func (s *Server) EnableReplication(l *Live, rcfg ReplicationConfig) error {
	term, err := replica.LoadTerm(l.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("server: loading fencing term: %w", err)
	}
	if term == 0 && l.follow == nil {
		term = 1
		if err := replica.SaveTerm(l.cfg.WALDir, term); err != nil {
			return err
		}
	}
	s.EnableLive(l)
	s.term.Store(term)
	s.repl = &replState{pcfg: rcfg}
	fc := l.follow
	if fc == nil {
		s.installPrimary()
		return nil
	}
	s.role.Store(int32(roleFollower))
	s.repl.follower = replica.StartFollower(replica.FollowerConfig{
		Primary:          fc.PrimaryURL,
		Client:           fc.Client,
		Term:             s.term.Load,
		After:            l.appliedSeq,
		Apply:            l.applyFrame,
		Bootstrap:        l.rebootstrap,
		HeartbeatTimeout: fc.HeartbeatTimeout,
		MinBackoff:       fc.MinBackoff,
		MaxBackoff:       fc.MaxBackoff,
		Logf:             s.logf,
	})
	return nil
}

// installPrimary makes this node the primary: the log-shipping side over the
// node's one durable state, then the role flip that opens /update. Called
// before serving, or at promotion with roleMu held.
func (s *Server) installPrimary() {
	l, rs := s.live, s.repl
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
	s.role.Store(int32(rolePrimary))
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
func (l *Live) applyFrame(seq uint64, rec []byte) error {
	batch, err := core.DecodeMutations(rec)
	if err != nil {
		return fmt.Errorf("decoding frame %d: %w", seq, err)
	}
	return l.write(func() (uint64, error) {
		// A refetched frame can already sit at the tail of the local log: a
		// transient Sync or apply failure aborts the tail after AppendSeq took
		// the frame, and the reconnect re-ships the same sequence number.
		// Re-appending would trip the monotonicity check on every retry and
		// livelock the follower, so skip straight to Sync + apply. (The bytes
		// are identical — same primary frame — so the persisted copy stands.)
		if seq != l.log.NextSeq()-1 {
			if err := l.log.AppendSeq(seq, rec); err != nil {
				return 0, err
			}
		}
		return seq, l.log.Sync()
	}, func() error {
		st, err := l.srv.ix.ApplyMutations(batch)
		if err == nil {
			l.count(batch, st)
		}
		return err
	})
}

// rebootstrap refetches a snapshot after the primary answered 410 (our
// cursor predates its log horizon) and swaps it in as the serving index. The
// fetch derives its deadline from the fetch loop's context, so
// Follower.Stop — and thus promotion and Close — cancels it instead of
// blocking on it for up to the bootstrap timeout.
func (l *Live) rebootstrap(ctx context.Context) (uint64, error) {
	s := l.srv
	term := s.term.Load()
	ix, snap, err := fetchSnapshot(ctx, *l.follow, term)
	if err != nil {
		return 0, err
	}
	// The serving index is swapped wholesale, so the fresh one needs its own
	// cross-query cache (cache epochs do not carry across indexes).
	ix.EnableCache(s.cfg.Cache)
	err = l.write(func() (uint64, error) {
		// Persist before swapping, like a first start. The log ends below the
		// snapshot, and the frames the fetch loop appends next start above
		// it: a swap that outran its snapshot would let a restart load the
		// old one and replay around the hole. On an error the fetch loop
		// retries with backoff, the old index still serving.
		if err := persistBootstrap(*l.follow, ix, snap, term); err != nil {
			return 0, err
		}
		s.term.Store(max(term, snap.Term))
		// Re-anchor the log at the snapshot, so a promotion before the next
		// frame cannot re-issue a sequence number the snapshot covers.
		l.log.SkipTo(snap.Seq)
		l.snapSeq.Store(snap.Seq)
		l.snapTime.Store(time.Now().UnixNano())
		return snap.Seq, nil
	}, func() error {
		s.ix = ix
		return nil
	})
	return snap.Seq, err
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
	if err := replica.SaveTerm(s.live.cfg.WALDir, seen); err != nil {
		s.logf("server: persisting term after demotion: %v", err)
	}
}

// handlePromote turns this follower into the primary: the fetch loop stops,
// the fencing term bumps past every term seen and persists, the role flips —
// the node's durable state, its log, snapshotter and applied position carry
// on as they are — and the old primary is told (best effort) that it has
// been superseded.
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
	newTerm := max(s.term.Load(), fol.PrimaryTerm()) + 1
	if err := replica.SaveTerm(s.live.cfg.WALDir, newTerm); err != nil {
		// Without a durable term the fence is void; refuse the promotion
		// (the node stays a — now stale — follower, which is safe).
		s.logf("server: CRITICAL: promotion aborted, cannot persist term: %v", err)
		s.httpError(w, http.StatusInternalServerError, "", "persisting fencing term: %v", err)
		return
	}
	s.term.Store(newTerm)
	s.installPrimary()
	applied := s.live.AppliedSeq()
	// Best effort: fence the old primary right now rather than on its next
	// follower contact.
	fc := s.live.follow
	go func(term uint64) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := replica.NotifyStaleTerm(ctx, fc.Client, fc.PrimaryURL, term); err != nil {
			s.logf("server: notifying old primary %s of term %d: %v", fc.PrimaryURL, term, err)
		}
	}(newTerm)

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
	bound := s.live.follow.MaxStaleness
	if bound <= 0 {
		return true
	}
	if stale := s.repl.follower.Staleness(); stale > bound {
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusServiceUnavailable, "stale",
			"replica is %.1fs behind the primary, beyond the %.1fs staleness bound; retry later or read the primary",
			stale.Seconds(), bound.Seconds())
		return false
	}
	return true
}

// stats contributes the replication section of GET /stats.
func (rs *replState) stats(s *Server) map[string]any {
	rs.roleMu.Lock()
	p := rs.primary
	rs.roleMu.Unlock()
	fol := rs.follower
	out := map[string]any{"promoted": fol != nil && role(s.role.Load()) != roleFollower}
	if p != nil {
		out["horizon"] = p.Horizon()
	}
	if fol != nil {
		st := fol.Stats()
		fc := s.live.follow
		out["primary_url"] = fc.PrimaryURL
		out["applied_seq"] = st.Applied
		out["primary_synced"] = st.PrimarySynced
		out["primary_term"] = st.PrimaryTerm
		out["lag_frames"] = st.PrimarySynced - st.Applied
		out["staleness_sec"] = fol.Staleness().Seconds()
		out["max_staleness_sec"] = fc.MaxStaleness.Seconds()
		out["connected"] = st.Connected
		out["frames_applied"] = st.FramesApplied
		out["duplicates"] = st.Duplicates
		out["gaps"] = st.Gaps
		out["retries"] = st.Retries
		out["bootstraps"] = st.Bootstraps
	}
	return out
}
