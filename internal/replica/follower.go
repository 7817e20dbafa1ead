package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// errNeedSnapshot: the follower's cursor is below the primary's log horizon;
// only a fresh snapshot bootstrap can resynchronize.
var errNeedSnapshot = errors.New("replica: snapshot bootstrap required")

// errStalePrimary: the stream came from a primary whose term is below the
// highest term this follower has seen — a resurrected pre-failover primary.
var errStalePrimary = errors.New("replica: stale primary term")

// FollowerConfig wires a follower's fetch loop to the hosting server.
type FollowerConfig struct {
	// Primary is the primary's base URL, e.g. http://10.0.0.1:8080.
	Primary string
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
	// Term returns the local fencing term (promotion bumps it elsewhere).
	Term func() uint64
	// After is the initial resume cursor: the last locally applied sequence
	// number.
	After uint64
	// Apply applies one shipped record. It is called sequentially, with
	// strictly increasing sequence numbers; an error aborts the tail, and
	// the record is refetched after backoff (apply must therefore be atomic:
	// either the record takes effect or it does not).
	Apply func(seq uint64, record []byte) error
	// Bootstrap re-bootstraps from the primary's snapshot when the stream
	// answers 410 (cursor below horizon). It returns the new cursor. The
	// context is the fetch loop's run context: implementations must derive
	// their deadlines from it so Stop cancels an in-flight bootstrap. Nil
	// leaves the follower retrying (and therefore stale) — the hosting
	// server decides whether live re-bootstrap is safe.
	Bootstrap func(ctx context.Context) (uint64, error)
	// HeartbeatTimeout bounds the silence on an open stream before it is
	// declared stalled; 0 means DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// MinBackoff and MaxBackoff bound the reconnect backoff (exponential,
	// with ±25% jitter). Zero means 50ms and 5s.
	MinBackoff, MaxBackoff time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// FollowerStats is a point-in-time summary of the fetch loop.
type FollowerStats struct {
	Applied       uint64 // last applied sequence number
	PrimarySynced uint64 // primary's advertised durable position
	PrimaryTerm   uint64 // highest term seen from the primary
	Connected     bool   // a stream is currently open
	FramesApplied uint64
	Duplicates    uint64 // frames skipped as already applied
	Gaps          uint64 // sequence gaps that forced a reconnect
	Retries       uint64 // reconnects (any cause)
	Bootstraps    uint64 // snapshot re-bootstraps
}

// Follower tails a primary's replication stream and applies its records.
// Start with StartFollower; Stop before discarding.
type Follower struct {
	cfg    FollowerConfig
	cancel context.CancelFunc
	done   chan struct{}

	applied       atomic.Uint64
	primarySynced atomic.Uint64
	primaryTerm   atomic.Uint64
	caughtUp      atomic.Int64 // unix nanos of the last caught-up observation
	connected     atomic.Bool

	framesApplied, dups, gaps atomic.Uint64
	retries, bootstraps       atomic.Uint64
}

// StartFollower starts the fetch loop. The caller must already hold a
// consistent local state at cfg.After (a bootstrapped snapshot plus any
// locally replayed WAL tail); the loop begins caught-up as of now.
func StartFollower(cfg FollowerConfig) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, cancel: cancel, done: make(chan struct{})}
	f.applied.Store(cfg.After)
	f.primarySynced.Store(cfg.After)
	f.caughtUp.Store(time.Now().UnixNano())
	go f.run(ctx)
	return f
}

// Stop ends the fetch loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// PrimaryTerm returns the highest fencing term seen from the primary.
func (f *Follower) PrimaryTerm() uint64 { return f.primaryTerm.Load() }

// Staleness returns how long ago the follower last observed itself caught up
// with the primary's durable position. The hosting server compares it with
// the configured bound to decide whether reads are still honest.
func (f *Follower) Staleness() time.Duration {
	return time.Since(time.Unix(0, f.caughtUp.Load()))
}

// Stats returns a point-in-time summary.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Applied:       f.applied.Load(),
		PrimarySynced: f.primarySynced.Load(),
		PrimaryTerm:   f.primaryTerm.Load(),
		Connected:     f.connected.Load(),
		FramesApplied: f.framesApplied.Load(),
		Duplicates:    f.dups.Load(),
		Gaps:          f.gaps.Load(),
		Retries:       f.retries.Load(),
		Bootstraps:    f.bootstraps.Load(),
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) client() *http.Client {
	if f.cfg.Client != nil {
		return f.cfg.Client
	}
	return http.DefaultClient
}

func (f *Follower) heartbeatTimeout() time.Duration {
	if f.cfg.HeartbeatTimeout > 0 {
		return f.cfg.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (f *Follower) backoffBounds() (time.Duration, time.Duration) {
	lo, hi := f.cfg.MinBackoff, f.cfg.MaxBackoff
	if lo <= 0 {
		lo = 50 * time.Millisecond
	}
	if hi <= 0 {
		hi = 5 * time.Second
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// noteCaughtUp refreshes the staleness clock whenever the applied position
// has reached the primary's advertised durable position.
func (f *Follower) noteCaughtUp() {
	if f.applied.Load() >= f.primarySynced.Load() {
		f.caughtUp.Store(time.Now().UnixNano())
	}
}

// advancePrimarySynced records a (monotone) advertised durable position.
func (f *Follower) advancePrimarySynced(seq uint64) {
	for {
		cur := f.primarySynced.Load()
		if seq <= cur || f.primarySynced.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// run is the retry loop: tail until the stream fails, then back off
// (exponential + jitter) and reconnect from the last applied cursor.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	lo, hi := f.backoffBounds()
	backoff := lo
	for ctx.Err() == nil {
		before := f.applied.Load()
		err := f.tail(ctx)
		f.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if f.applied.Load() > before {
			// The stream made progress before failing; a lossy-but-alive
			// primary should be re-dialed eagerly, not at the max backoff.
			backoff = lo
		}
		if errors.Is(err, errNeedSnapshot) && f.cfg.Bootstrap != nil {
			f.bootstraps.Add(1)
			cursor, berr := f.cfg.Bootstrap(ctx)
			if berr == nil {
				f.applied.Store(cursor)
				f.advancePrimarySynced(cursor)
				f.noteCaughtUp()
				backoff = lo
				continue
			}
			err = fmt.Errorf("bootstrap: %w", berr)
		}
		f.retries.Add(1)
		f.logf("replica: tail from %d failed: %v; retrying in %v", f.applied.Load(), err, backoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(jitter(backoff)):
		}
		if backoff *= 2; backoff > hi {
			backoff = hi
		}
	}
}

// jitter spreads a backoff to ±25% so a fleet of followers does not
// reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}

// tail opens one stream and applies frames until it errors or stalls.
func (f *Follower) tail(ctx context.Context) error {
	cursor := f.applied.Load()
	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	url := fmt.Sprintf("%s/replication/stream?after=%d", f.cfg.Primary, cursor)
	req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(HeaderTerm, strconv.FormatUint(f.cfg.Term(), 10))
	resp, err := f.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errNeedSnapshot
	default:
		return fmt.Errorf("replica: stream status %s", resp.Status)
	}
	pterm, err := strconv.ParseUint(resp.Header.Get(HeaderTerm), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: bad %s header: %w", HeaderTerm, err)
	}
	// Fencing: reject a primary running an older term than any we have seen
	// (or than our own) — its log may have diverged from the promoted line.
	if pterm < f.primaryTerm.Load() || pterm < f.cfg.Term() {
		return fmt.Errorf("%w: stream term %d below known term %d",
			errStalePrimary, pterm, max(f.primaryTerm.Load(), f.cfg.Term()))
	}
	f.primaryTerm.Store(pterm)
	f.connected.Store(true)

	// Stall detector: if no frame (not even a heartbeat) lands within the
	// timeout, cancel the request so the blocked read aborts.
	watchdog := time.AfterFunc(f.heartbeatTimeout(), cancel)
	defer watchdog.Stop()

	fr := newFrameReader(resp.Body)
	for {
		seq, rec, err := fr.next()
		if err != nil {
			if streamCtx.Err() != nil && ctx.Err() == nil {
				return fmt.Errorf("replica: stream stalled for %v", f.heartbeatTimeout())
			}
			if err == io.EOF {
				return fmt.Errorf("replica: primary closed the stream")
			}
			return err
		}
		watchdog.Reset(f.heartbeatTimeout())
		if len(rec) == 0 {
			// Heartbeat: the primary's durable position.
			f.advancePrimarySynced(seq)
			f.noteCaughtUp()
			continue
		}
		switch {
		case seq <= cursor:
			f.dups.Add(1) // duplicate delivery: already applied, skip
			continue
		case seq > cursor+1:
			f.gaps.Add(1)
			return fmt.Errorf("replica: stream gap: frame %d after cursor %d", seq, cursor)
		}
		if err := f.cfg.Apply(seq, rec); err != nil {
			return fmt.Errorf("replica: applying frame %d: %w", seq, err)
		}
		cursor = seq
		f.applied.Store(seq)
		f.framesApplied.Add(1)
		f.advancePrimarySynced(seq)
		f.noteCaughtUp()
	}
}

// Snapshot is a fetched, checksum-verified primary snapshot.
type Snapshot struct {
	Seq  uint64 // WAL sequence number the snapshot covers
	Term uint64 // primary's fencing term
	Data []byte // opaque snapshot bytes (the hosting server decodes them)
}

// FetchSnapshot downloads and verifies a snapshot from the primary.
func FetchSnapshot(ctx context.Context, client *http.Client, primary string, term uint64) (*Snapshot, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/replication/snapshot", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderTerm, strconv.FormatUint(term, 10))
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: snapshot status %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSeq), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("replica: bad %s header: %w", HeaderSeq, err)
	}
	pterm, err := strconv.ParseUint(resp.Header.Get(HeaderTerm), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("replica: bad %s header: %w", HeaderTerm, err)
	}
	if pterm < term {
		return nil, fmt.Errorf("%w: snapshot term %d below own term %d", errStalePrimary, pterm, term)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: reading snapshot body: %w", err)
	}
	if got, want := checksumHex(data), resp.Header.Get(HeaderChecksum); got != want {
		return nil, fmt.Errorf("replica: snapshot checksum mismatch: body %s, header %s", got, want)
	}
	return &Snapshot{Seq: seq, Term: pterm, Data: data}, nil
}

// NotifyStaleTerm tells a (possibly dead) old primary that a higher term now
// exists, so a surviving stale primary stops acking writes immediately
// rather than on its next follower contact. Best effort: an unreachable
// primary is simply ignored by callers.
func NotifyStaleTerm(ctx context.Context, client *http.Client, primary string, term uint64) error {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		primary+"/replication/stream?after=0", nil)
	if err != nil {
		return err
	}
	req.Header.Set(HeaderTerm, strconv.FormatUint(term, 10))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
