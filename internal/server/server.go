// Package server exposes a compiled MV-index over HTTP with a small JSON
// API, turning the library into a queryable service:
//
//	POST /query      {"query": "Q(a) :- Advisor(104,a)"}        → answers with probabilities
//	POST /explain    {"query": "Q() :- Advisor(104,a)"}         → traversal statistics
//	GET  /marginal?var=17                                        → one tuple's corrected marginal
//	GET  /stats                                                  → index and dataset statistics
//	GET  /healthz                                                → liveness (always 200 while the process serves)
//	GET  /readyz                                                 → readiness (503 while draining)
//
// With a durable state (a Live, from OpenLive or OpenFollower) the server
// also accepts mutations on a standalone node (EnableLive) or a primary
// (EnableReplication):
//
//	POST /update     {"mutations": [{"op": "insert", ...}, ...]}  → WAL-logged batch, applied incrementally
//	POST /reweight   {"rel": "Adv", "vals": [1, 101], "weight": 2} → single reweight through the same path
//
// and a replicated node serves or tails the log-shipping endpoints
// (replication.go). A Live is the one durable state for every role — a
// follower's applied frames, snapshots and recovery run through the same
// code as a primary's writes, so promotion only flips the role.
//
// Requests run concurrently: the index is frozen between mutations and its
// read path (Query, ExplainBoolean, TupleMarginal) builds query OBDDs in
// per-call scratch managers, so handlers only take a read lock. The write
// lock is held while an update batch publishes the index's next version
// (see live.go).
//
// The server degrades gracefully under pressure (Config): evaluation
// handlers run under a per-request timeout and resource budget — a deadline
// or cancellation maps to 408, an exhausted node/pair budget to 503 — an
// admission semaphore sheds load with 503 + Retry-After when too many
// queries are in flight, request bodies are size-capped (413) and must be
// JSON (400), and a panicking handler is recovered to a 500 without taking
// the process down. All error responses are structured JSON:
// {"error": "...", "reason": "timeout"|"budget"|"overload"|...}.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/mvindex"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 1 << 20 // 1 MiB

// Config bounds the server's resource use. The zero value imposes no
// timeout, no admission cap, the default body cap, and no budget.
type Config struct {
	// QueryTimeout bounds each evaluation request; expiry returns 408.
	QueryTimeout time.Duration
	// MaxInflight caps concurrently evaluating requests; excess requests
	// are shed immediately with 503 + Retry-After. 0 means unlimited.
	MaxInflight int
	// MaxBodyBytes caps POST bodies; larger bodies return 413.
	// 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Budget bounds each evaluation's resources (OBDD nodes, intersection
	// pairs); a violation returns 503 with reason "budget".
	Budget budget.Budget
	// Cache bounds the cross-query answer/lineage cache installed on the
	// index at construction. The zero value enables it with defaults; set
	// Cache.Disable to serve uncached.
	Cache qcache.Options
	// Logger receives panic reports and write failures; nil means
	// log.Default().
	Logger *log.Logger
}

// role is the server's position in a replication topology. Standalone
// servers (no replication configured) ack writes whenever a write path is
// attached; primaries ack writes and ship their WAL; followers and fenced
// ex-primaries reject writes with 503.
type role int32

const (
	roleStandalone role = iota
	rolePrimary
	roleFollower
	roleDemoted
)

func (r role) String() string {
	switch r {
	case rolePrimary:
		return "primary"
	case roleFollower:
		return "follower"
	case roleDemoted:
		return "demoted"
	default:
		return "standalone"
	}
}

// Server wraps an MV-index as an http.Handler.
type Server struct {
	mu  sync.RWMutex // read-held by handlers; write-held only by index mutation
	ix  *mvindex.Index
	mux *http.ServeMux
	cfg Config
	sem chan struct{} // admission semaphore; nil = unlimited

	live  *Live // durable state and write path; set before serving, nil without a WAL
	start time.Time

	role atomic.Int32  // current role (see type role)
	term atomic.Uint64 // fencing term; 0 until replication is enabled
	repl *replState    // replication wiring; nil unless enabled

	draining atomic.Bool

	// failed, once set, is the fail-closed state: a logged batch failed to
	// apply, so the index may be half-patched. Every request that could
	// serve a number or a write answers 503 "index" until a restart.
	failed atomic.Pointer[IndexFailure]

	// slow, when non-nil, runs inside each admitted evaluation handler
	// before the evaluation — a test-only hook to hold requests in flight
	// for the overload and drain tests.
	slow func()
}

// New builds a server around a compiled index with a zero Config.
func New(ix *mvindex.Index) *Server { return NewWith(ix, Config{}) }

// NewWith builds a server around a compiled index with explicit bounds.
func NewWith(ix *mvindex.Index, cfg Config) *Server {
	s := &Server{ix: ix, mux: http.NewServeMux(), cfg: cfg, start: time.Now()}
	// Serving is a repeated-workload setting, so the cross-query cache is on
	// by default; construction has exclusive access to the index, which
	// EnableCache (a mutating call) requires.
	ix.EnableCache(cfg.Cache)
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux.HandleFunc("POST /query", s.admit(s.handleQuery))
	s.mux.HandleFunc("POST /explain", s.admit(s.handleExplain))
	s.mux.HandleFunc("GET /marginal", s.admit(s.handleMarginal))
	s.mux.HandleFunc("GET /stats", s.handleStats)
	// Write and replication endpoints are always routed; the handlers gate on
	// the attached write path and the current role, so a follower answers 503
	// (not 404) and a promotion needs no re-registration.
	s.mux.HandleFunc("POST /update", s.handleUpdateGate)
	s.mux.HandleFunc("POST /reweight", s.handleReweightGate)
	s.mux.HandleFunc("GET /replication/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /replication/stream", s.handleReplStream)
	s.mux.HandleFunc("POST /replication/promote", s.handlePromote)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// SetDraining flips the readiness state: while draining, /readyz returns 503
// so load balancers stop routing new traffic, while in-flight and even new
// requests still complete. Flip it before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ServeHTTP implements http.Handler. A panic in any handler is recovered,
// logged with a stack, and answered with a 500 — one broken request must not
// take the process down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already wrote headers this is a
			// no-op on the status line.
			s.httpError(w, http.StatusInternalServerError, "", "internal error")
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// admit applies the admission semaphore: requests beyond MaxInflight are
// shed immediately rather than queued, so latency stays bounded. On a
// follower it also applies the staleness gate — a lagging replica answers
// 503 rather than silently stale probabilities.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.indexFailed(w) || !s.freshEnough(w) {
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				w.Header().Set("Retry-After", "1")
				s.httpError(w, http.StatusServiceUnavailable, "overload",
					"too many in-flight queries (max %d); retry later", s.cfg.MaxInflight)
				return
			}
		}
		if s.slow != nil {
			s.slow()
		}
		h(w, r)
	}
}

// IndexFailure is the error of the fail-closed state: the batch that failed
// to apply after its WAL append, and why.
type IndexFailure struct {
	Seq uint64
	Err error
}

func (f *IndexFailure) Error() string {
	return fmt.Sprintf("index failed applying batch %d (%v); restart to recover from snapshot + WAL", f.Seq, f.Err)
}

// failClosed enters the fail-closed state; the first failure is kept.
func (s *Server) failClosed(seq uint64, err error) {
	if s.failed.CompareAndSwap(nil, &IndexFailure{Seq: seq, Err: err}) {
		s.logf("server: CRITICAL: batch %d failed to apply: %v; failing closed until a restart", seq, err)
	}
}

// indexFailed writes the 503 "index" answer when the server has failed
// closed.
func (s *Server) indexFailed(w http.ResponseWriter) bool {
	f := s.failed.Load()
	if f == nil {
		return false
	}
	s.httpError(w, http.StatusServiceUnavailable, "index", "%v", f)
	return true
}

// rlockIndex takes the index read lock for an evaluation and re-checks the
// fail-closed state under it: admit checked it before the lock, and a
// failing apply sets it while holding the write lock, so a reader that was
// admitted and then waited on the lock must not evaluate the half-patched
// index. On failure it has released the lock and written the 503 answer.
func (s *Server) rlockIndex(w http.ResponseWriter) bool {
	s.mu.RLock()
	if s.failed.Load() != nil {
		s.mu.RUnlock()
		s.indexFailed(w)
		return false
	}
	return true
}

// acceptsWrites reports whether this node may ack mutations: a follower or a
// fenced (demoted) ex-primary must not.
func (s *Server) acceptsWrites() bool {
	switch role(s.role.Load()) {
	case roleStandalone, rolePrimary:
		return true
	default:
		return false
	}
}

// writePath resolves the attached Live for a mutation request, writing the
// 503 itself when this node must not ack writes.
func (s *Server) writePath(w http.ResponseWriter) (*Live, bool) {
	if !s.acceptsWrites() {
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusServiceUnavailable, "not-primary",
			"this node is a %s (term %d) and does not ack writes", role(s.role.Load()), s.term.Load())
		return nil, false
	}
	if s.live == nil {
		s.httpError(w, http.StatusServiceUnavailable, "read-only",
			"no write path configured (start with a WAL directory)")
		return nil, false
	}
	return s.live, true
}

func (s *Server) handleUpdateGate(w http.ResponseWriter, r *http.Request) {
	if l, ok := s.writePath(w); ok {
		l.handleUpdate(w, r)
	}
}

func (s *Server) handleReweightGate(w http.ResponseWriter, r *http.Request) {
	if l, ok := s.writePath(w); ok {
		l.handleReweight(w, r)
	}
}

// bounds derives the evaluation context and budget of one request.
func (s *Server) bounds(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.QueryTimeout)
	}
	return ctx, func() {}
}

func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// decodeJSON enforces the content type and body cap, then decodes the body,
// which must be exactly one JSON value, into dst. On failure it has already
// written the error response and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			s.httpError(w, http.StatusBadRequest, "content-type",
				"unsupported content type %q: use application/json", ct)
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(dst)
	if err == nil {
		// The body is one JSON value: only whitespace may follow it.
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("data after the JSON value: %w", cmp.Or(terr, errors.New("a second value")))
		}
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "body-too-large",
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		s.httpError(w, http.StatusBadRequest, "", "bad request body: %v", err)
		return false
	}
	return true
}

// evalError maps an evaluation failure to the degradation ladder: deadline
// and cancellation → 408, exhausted resource budget → 503, anything else →
// 422 (the query was well-formed but not evaluable).
func (s *Server) evalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, budget.ErrCanceled):
		s.httpError(w, http.StatusRequestTimeout, "timeout", "%v", err)
	case errors.Is(err, budget.ErrBudgetExceeded):
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusServiceUnavailable, "budget", "%v", err)
	default:
		s.httpError(w, http.StatusUnprocessableEntity, "", "evaluation failed: %v", err)
	}
}

type queryRequest struct {
	Query string `json:"query"`
}

// handleQuery answers a /query. It does no parsing of its own: the index
// keys its answer cache on the query text and parses and validates it only
// on a miss, so a hit costs a hash and a lookup.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.bounds(r)
	defer cancel()
	opts := mvindex.IntersectOptions{
		CacheConscious: true,
		Ctx:            ctx,
		Budget:         s.cfg.Budget,
	}
	t0 := time.Now()
	if !s.rlockIndex(w) {
		return
	}
	rows, err := s.ix.QueryText(req.Query, opts)
	s.mu.RUnlock()
	var qerr *mvindex.QueryError
	if errors.As(err, &qerr) {
		s.httpError(w, http.StatusBadRequest, "", "bad query: %v", qerr)
		return
	}
	if err != nil {
		s.evalError(w, err)
		return
	}
	s.writeAnswers(w, rows, float64(time.Since(t0).Microseconds())/1000)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	q, err := ucq.Parse(req.Query)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "", "bad query: %v", err)
		return
	}
	ctx, cancel := s.bounds(r)
	defer cancel()
	b := ucq.UCQ{Disjuncts: q.Disjuncts}
	if !s.rlockIndex(w) {
		return
	}
	verr := s.ix.Translation().ValidateQuery(b)
	var ex mvindex.Explain
	if verr == nil {
		ex, err = s.ix.ExplainBoolean(b, mvindex.IntersectOptions{Ctx: ctx, Budget: s.cfg.Budget})
	}
	s.mu.RUnlock()
	if verr != nil {
		s.httpError(w, http.StatusBadRequest, "", "bad query: %v", verr)
		return
	}
	if err != nil {
		s.evalError(w, err)
		return
	}
	s.writeJSON(w, map[string]any{
		"query_nodes":   ex.QuerySize,
		"query_vars":    ex.QueryVars,
		"entry_block":   ex.EntryBlock,
		"last_block":    ex.LastBlock,
		"blocks":        ex.Blocks,
		"span_levels":   ex.SpanLevels,
		"index_levels":  ex.IndexLevels,
		"pairs_visited": ex.PairsVisited,
		"prob":          ex.Prob,
		"summary":       ex.String(),
	})
}

func (s *Server) handleMarginal(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.URL.Query().Get("var"))
	if err != nil || v < 1 {
		s.httpError(w, http.StatusBadRequest, "", "var must be a positive integer")
		return
	}
	ctx, cancel := s.bounds(r)
	defer cancel()
	if !s.rlockIndex(w) {
		return
	}
	p, err := s.ix.TupleMarginal(v, mvindex.IntersectOptions{Ctx: ctx, Budget: s.cfg.Budget})
	var rel string
	var vals []any
	if err == nil {
		relName, tup, terr := s.ix.Translation().DB.VarTuple(v)
		if terr == nil {
			rel = relName
			for _, x := range tup.Vals {
				if x.IsStr {
					vals = append(vals, x.Str)
				} else {
					vals = append(vals, x.Int)
				}
			}
		}
	}
	s.mu.RUnlock()
	if err != nil {
		if errors.Is(err, budget.ErrCanceled) || errors.Is(err, budget.ErrBudgetExceeded) {
			s.evalError(w, err)
			return
		}
		s.httpError(w, http.StatusNotFound, "", "%v", err)
		return
	}
	s.writeJSON(w, map[string]any{"var": v, "relation": rel, "tuple": vals, "marginal": p})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tr := s.ix.Translation()
	stats := []map[string]any{}
	for _, st := range tr.DB.Stats() {
		stats = append(stats, map[string]any{
			"relation": st.Relation, "deterministic": st.Deterministic, "tuples": st.Tuples,
		})
	}
	logP, sign := s.ix.LogProbNotW()
	cs := s.ix.CacheStats()
	out := map[string]any{
		"index_nodes":    s.ix.Size(),
		"index_blocks":   s.ix.Blocks(),
		"index_width":    s.ix.Width(),
		"tuple_vars":     tr.DB.NumVars(),
		"nv_relations":   tr.NVRelations,
		"denial_views":   tr.DenialViews,
		"log_p_not_w":    logP,
		"p_not_w_sign":   sign,
		"relations":      stats,
		"manager_nodes":  s.ix.Size(), // the index holds no manager: ¬W is its segments
		"pruned_indep":   tr.PrunedIndependent,
		"has_constraint": tr.HasConstraints(),
		"cache":          cs,
		// Derived ratios, so dashboards don't have to divide raw counters:
		// apply-cache hit rates (the index's order manager's and the
		// per-query scratch managers') and the cross-query answer cache's hit
		// rate.
		"apply_cache_hit_rate":  hitRate(cs.SharedApplyHits, cs.SharedApplyMisses),
		"query_apply_hit_rate":  hitRate(cs.QueryApplyHits, cs.QueryApplyMisses),
		"answer_cache_hit_rate": hitRate(cs.Answers.Hits, cs.Answers.Misses),
		"uptime_sec":            time.Since(s.start).Seconds(),
		"role":                  role(s.role.Load()).String(),
		"term":                  s.term.Load(),
	}
	if ri := s.ix.ReorderInfo(); ri != nil {
		out["reorder"] = ri
	}
	if s.live != nil {
		out["live"] = s.live.stats()
	}
	if s.repl != nil {
		out["replication"] = s.repl.stats(s)
	}
	if f := s.failed.Load(); f != nil {
		out["failed"] = f.Error()
	}
	s.writeJSON(w, out)
}

// hitRate returns hits/(hits+misses), or 0 before any lookup.
func hitRate(hits, misses uint64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.httpError(w, http.StatusServiceUnavailable, "draining", "shutting down")
		return
	}
	if s.indexFailed(w) {
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) logf(format string, args ...any) {
	l := s.cfg.Logger
	if l == nil {
		l = log.Default()
	}
	l.Printf(format, args...)
}

// httpError writes the structured error body. reason is a stable
// machine-readable label ("timeout", "budget", "overload", ...); empty means
// a generic client or evaluation error.
func (s *Server) httpError(w http.ResponseWriter, code int, reason, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if reason != "" {
		body["reason"] = reason
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.logf("server: writing error response: %v", err)
	}
}
