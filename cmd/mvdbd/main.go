// Command mvdbd serves a compiled MV-index over HTTP (see internal/server
// for the JSON API). It either generates the synthetic DBLP dataset or
// loads a previously saved index.
//
//	mvdbd -authors 2000 -addr :8080
//	mvdbd -load-index dblp.mvx -addr :8080
//
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/query -H 'Content-Type: application/json' \
//	     -d '{"query": "Q(a) :- Advisor(104,a)"}'
//
// The service degrades gracefully under pressure: -query-timeout bounds each
// evaluation (408 on expiry), -max-nodes/-max-pairs bound its resources (503
// on exhaustion), -max-inflight sheds excess load (503 + Retry-After), and
// SIGINT/SIGTERM drain in-flight requests before exiting 0. /healthz reports
// liveness, /readyz readiness (503 while draining).
//
// With -wal-dir the server becomes mutable: POST /update and POST /reweight
// apply WAL-logged mutation batches to the index incrementally, a background
// snapshotter (-snapshot-interval) persists the index and truncates the log,
// and on restart the server recovers from the latest snapshot plus the WAL
// tail — so acknowledged mutations survive crashes. The drain on
// SIGINT/SIGTERM flushes the WAL and takes a final snapshot.
//
//	mvdbd -authors 2000 -wal-dir /var/lib/mvdb/wal -addr :8080
//
// A WAL-enabled node is also a replication primary: it serves GET
// /replication/snapshot and GET /replication/stream to followers. Start a
// read replica with -replica-of; it bootstraps from the primary's snapshot,
// tails its WAL, and serves reads within -max-staleness (503 + Retry-After
// beyond it). POST /replication/promote fails the replica over to primary
// under a bumped fencing term.
//
//	mvdbd -replica-of http://primary:8080 -wal-dir /var/lib/mvdb/replica -addr :8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		authors   = flag.Int("authors", 2000, "aid domain of the synthetic DBLP dataset")
		seed      = flag.Int64("seed", 1, "generator seed")
		loadIndex = flag.String("load-index", "", "serve a previously saved MV-index instead of generating data")

		reorder          = flag.String("reorder", "off", "dynamic variable reordering after compile: off | once | converge")
		reorderMaxGrowth = flag.Float64("reorder-max-growth", obdd.DefaultMaxGrowth, "sifting growth bound (times the pre-sift node count)")
		reorderRounds    = flag.Int("reorder-rounds", obdd.DefaultMaxRounds, "max sifting rounds in converge mode")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-request evaluation timeout (0 = none); expiry returns 408")
		maxInflight  = flag.Int("max-inflight", 64, "concurrently evaluating requests before shedding with 503 (0 = unlimited)")
		maxNodes     = flag.Int("max-nodes", 0, "OBDD nodes a single evaluation may allocate (0 = unlimited); exhaustion returns 503")
		maxPairs     = flag.Int("max-pairs", 0, "intersection pairs a single evaluation may visit (0 = unlimited); exhaustion returns 503")
		maxBody      = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body size cap in bytes; larger bodies return 413")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		cache        = flag.Bool("cache", true, "cross-query answer/lineage cache on the serving path")
		cacheEntries = flag.Int("cache-entries", 0, "answer-cache entry cap (0 = default, negative = unlimited)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "answer-cache byte cap (0 = default, negative = unlimited)")

		walDir       = flag.String("wal-dir", "", "enable the live-update write path: directory for the write-ahead log")
		snapPath     = flag.String("snapshot", "", "index snapshot path for recovery and WAL truncation (default <wal-dir>/index.snap)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "background snapshot period (0 = snapshot only on shutdown)")
		groupCommit  = flag.Duration("group-commit", 2*time.Millisecond, "longest a WAL commit waits for concurrent writers it has seen, so they share its fsync; a lone writer never waits (0 = never wait; writers still share the fsyncs they overlap)")

		replicaOf    = flag.String("replica-of", "", "run as a read replica of this primary URL (requires -wal-dir for local replica state)")
		maxStaleness = flag.Duration("max-staleness", 10*time.Second, "replica staleness bound: reads answer 503 + Retry-After when further behind the primary (0 = serve arbitrarily stale)")
	)
	flag.Parse()

	reorderMode, merr := obdd.ParseReorderMode(*reorder)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "mvdbd:", merr)
		os.Exit(1)
	}
	reorderOpts := obdd.ReorderOptions{Mode: reorderMode, MaxGrowth: *reorderMaxGrowth, MaxRounds: *reorderRounds}

	// build produces the index when no usable snapshot exists. With a WAL it
	// doubles as the recovery base, so it must be deterministic in the flags:
	// either the saved index file or the seeded DBLP generator.
	build := func() (*mvindex.Index, error) {
		if *loadIndex != "" {
			fmt.Fprintf(os.Stderr, "loading MV-index from %s...\n", *loadIndex)
			ix, err := mvindex.LoadFile(*loadIndex)
			if err != nil {
				return nil, err
			}
			// A snapshot of a sifted index already carries its learned order;
			// only sift indexes saved under the static Π.
			if reorderMode != obdd.ReorderOff && !ix.Reordered() {
				if st, err := ix.Sift(reorderOpts); err != nil {
					return nil, err
				} else if st.NodesBefore > 0 {
					fmt.Fprintf(os.Stderr, "reordered: %d -> %d nodes in %v\n",
						st.NodesBefore, st.NodesAfter, st.Duration.Round(time.Millisecond))
				}
			}
			return ix, nil
		}
		fmt.Fprintf(os.Stderr, "generating synthetic DBLP (%d authors)...\n", *authors)
		data, err := dblp.Generate(dblp.Config{NumAuthors: *authors, Seed: *seed})
		if err != nil {
			return nil, err
		}
		m, err := data.MVDB()
		if err != nil {
			return nil, err
		}
		tr, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			return nil, err
		}
		tr.Reorder = reorderOpts
		return mvindex.Build(tr)
	}

	var (
		ix   *mvindex.Index
		live *server.Live
		err  error
	)
	lcfg := server.LiveConfig{
		WALDir:           *walDir,
		SnapshotPath:     *snapPath,
		SnapshotInterval: *snapInterval,
		GroupCommit:      *groupCommit,
	}
	if lcfg.SnapshotPath == "" {
		lcfg.SnapshotPath = filepath.Join(*walDir, "index.snap")
	}
	t0 := time.Now()
	switch {
	case *replicaOf != "":
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "mvdbd: -replica-of requires -wal-dir for the replica's local WAL and snapshot")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "starting as a replica of %s...\n", *replicaOf)
		ix, live, err = server.OpenFollower(server.FollowerConfig{
			LiveConfig:   lcfg,
			PrimaryURL:   *replicaOf,
			MaxStaleness: *maxStaleness,
		})
	case *walDir != "":
		ix, live, err = server.OpenLive(lcfg, build)
	default:
		ix, err = build()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvdbd:", err)
		os.Exit(1)
	}

	h := server.NewWith(ix, server.Config{
		QueryTimeout: *queryTimeout,
		MaxInflight:  *maxInflight,
		MaxBodyBytes: *maxBody,
		Budget:       budget.Budget{MaxNodes: *maxNodes, MaxPairs: *maxPairs},
		Cache:        qcache.Options{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, Disable: !*cache},
	})
	// Any node with a WAL replicates: a replica tails its primary, and every
	// other node can ship its log — which also persists the fencing term, so
	// the node survives failovers happening around it.
	if live != nil {
		if err := h.EnableReplication(live, server.ReplicationConfig{}); err != nil {
			fmt.Fprintln(os.Stderr, "mvdbd:", err)
			os.Exit(1)
		}
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: h,
		// Header-read and idle timeouts plus a header cap keep slowloris
		// clients from pinning connections (the admission semaphore only
		// guards evaluation, not accept). No WriteTimeout: the replication
		// stream is a deliberate long poll.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}

	fmt.Fprintf(os.Stderr, "ready in %v: %d index nodes, %d blocks; listening on %s\n",
		time.Since(t0).Round(time.Millisecond), ix.Size(), ix.Blocks(), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "mvdbd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintln(os.Stderr, "mvdbd: shutting down, draining in-flight requests...")
	h.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mvdbd: shutdown:", err)
		os.Exit(1)
	}
	if live != nil {
		// Stop tailing (on a replica), take the final snapshot and flush the
		// WAL after HTTP shutdown, so no update races the close.
		if err := live.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mvdbd: closing live state:", err)
			os.Exit(1)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mvdbd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mvdbd: clean exit")
}
