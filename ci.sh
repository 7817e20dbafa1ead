#!/bin/sh
# CI gate: vet + the keep rule and the serving boundary + full test suite
# under the race detector + an end-to-end mvdbd smoke test.
#
# The -race run is load-bearing: the concurrency layer (a full compile's
# blocks fan out over GOMAXPROCS workers, which the tests pin to 4 against a
# GOMAXPROCS-1 reference so the pool runs on any host; concurrent MV-index
# reads, RWMutex HTTP serving) and the
# cancellation/budget layer (mid-compile aborts, shared budget counters) are
# guarded by hammer tests that only bite with the detector on.
set -eux

go build ./...
go vet ./...

# Keep rule: code stays only if a binary or example serves with it, a paper
# figure needs it, or the tests use it as an oracle. Print the non-test line
# count, and fail if any internal package is reachable only from tests.
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l
deps=$(go list -deps ./cmd/... ./examples/...)
for pkg in $(go list ./internal/...); do
    printf '%s\n' "$deps" | grep -qx "$pkg" \
        || { echo "keep rule: $pkg is imported by no binary or example"; exit 1; }
done

# The keep rule at function granularity: every non-test func of internal/*
# must be reached by the linker from a binary (cmd/*), an example, or the
# benchmark harness (benchmark/, which still compiles against the internal
# packages), or stand on the allowlist below. Reachability is the linker's
# own: each root is linked with -dumpdep and with inlining off in this
# repository's packages (-gcflags=mvdb/...=-l, so a small function still
# shows as a call; the standard library keeps its cached build, which holds
# the gate near 6 s on a cold cache instead of 30 s with all=-l), and generic
# instantiations (qcache.(*Cache[...]).Get) are folded into their
# declaration. Tests are not roots: a function only tests reach is deleted
# with those tests, or — if other tests use it as an oracle — moved into a
# _test.go file or listed here. The root mvdb facade is not a root either: an
# export only its tests reach keeps no internal code alive. Allowlist entries
# must stay true: one the roots reach, or that names no function, fails the
# gate too.
reach_allow='mvdb/internal/obdd.StructEqual test oracle: node-for-node equality of two compiled OBDDs (parallel, delta, sift and bench equivalence tests)
mvdb/internal/obdd.(*Manager).Eval test oracle: an OBDD evaluated under one assignment, checked against brute force and lineage
mvdb/internal/obdd.(*Manager).Budgeted test seam: the mvindex budget test checks that a budgeted query never arms the shared manager
mvdb/internal/mvindex.(*Index).FailCompile test seam: fault injection for the fail-closed write path (server live and replication tests)'
reach_gate() (
    set +x
    export LC_ALL=C   # sort, comm and join must agree on the order
    t0=$(date +%s)
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    reached() {
        sed -n 's/^.* -> //p' | grep '^mvdb/internal/' \
            | sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u
    }
    # roots RE: what the binaries whose package path matches RE reach (the
    # linker heads each binary's -dumpdep output with "# <package>").
    roots() { awk -v re="$1" '/^# /{on = ($2 ~ re); next} on' "$dir/deps" | reached; }
    go build -o "$dir/" -gcflags='mvdb/...=-l' -ldflags=-dumpdep ./cmd/... ./examples/... 2>"$dir/deps"
    (cd benchmark && go build -o "$dir/harness" -gcflags='mvdb/...=-l' -ldflags=-dumpdep .) 2>"$dir/hdeps"
    reached <"$dir/deps" >"$dir/bins"
    reached <"$dir/hdeps" | sort -u - "$dir/bins" >"$dir/reached"
    # Each declaration spelled as the linker spells it — pkg.F, pkg.T.M or
    # pkg.(*T).M, with type parameters dropped — and its lines, from the func
    # line to the closing brace.
    for f in $(find internal -name '*.go' ! -name '*_test.go'); do
        sed 's/\[[^]]*\]//g' "$f" | awk -v pkg="mvdb/$(dirname "$f")" '
        /^func / {
            s = $0; sub(/^func /, "", s)
            if (s ~ /^\(/) {
                r = s; sub(/\).*/, "", r); n = split(substr(r, 2), a, " ")
                m = s; sub(/^\([^)]*\) */, "", m); sub(/\(.*/, "", m)
                t = a[n]; if (t ~ /^\*/) t = "(" t ")"
                name = pkg "." t "." m
            } else { sub(/\(.*/, "", s); name = (s == "init") ? "" : pkg "." s }
            start = NR
            if (name != "" && $0 ~ /}$/) { print name, 1; name = "" }
            next
        }
        /^}/ && name != "" { print name, NR - start + 1; name = "" }'
    done | sort -u >"$dir/lines"
    cut -d' ' -f1 "$dir/lines" >"$dir/declared"
    printf '%s\n' "$reach_allow" | cut -d' ' -f1 | sort -u >"$dir/allowed"
    fail=0
    for sym in $(comm -23 "$dir/declared" "$dir/reached" | comm -23 - "$dir/allowed"); do
        echo "keep rule: $sym is reached by no binary, example or benchmark/ (delete it, or allowlist it with a reason)"
        fail=1
    done
    for sym in $(comm -12 "$dir/allowed" "$dir/reached") $(comm -23 "$dir/allowed" "$dir/declared"); do
        echo "keep rule: allowlist entry $sym is stale (reached, or no such function)"
        fail=1
    done
    echo "keep rule: allowlist applied:"
    printf '%s\n' "$reach_allow" | sed 's/^/    /'
    # The serving core and the rest, in tiers: each function counts in the
    # first tier whose roots reach it. tier NAME reads the tier's functions.
    : >"$dir/seen"
    tier() {
        comm -23 - "$dir/seen" | join - "$dir/lines" >"$dir/tier"
        awk -v t="$1" '{ n++; l += $2 } END { printf "keep rule: %d functions (%d lines) reached first by %s\n", n, l, t }' "$dir/tier"
        cut -d' ' -f1 "$dir/tier" | sort -u - "$dir/seen" >"$dir/seen.new" && mv "$dir/seen.new" "$dir/seen"
    }
    roots 'cmd/mvdbd$' | tier mvdbd
    roots 'cmd/(mvdb|dblpgen)$' | tier 'mvdb or dblpgen'
    roots 'cmd/mvbench$' | tier mvbench
    { roots 'examples/'; reached <"$dir/hdeps"; } | sort -u | tier 'examples or benchmark/'
    # What benchmark/ alone keeps alive must be exactly these two, until the
    # harness stops tracing a fingerprint stage and re-weighing the whole
    # index (ROADMAP C2): a new harness-only function fails the gate.
    pinned=$(comm -13 "$dir/bins" "$dir/reached" | comm -12 - "$dir/declared" | sed 's/^mvdb\/internal\///' | tr '\n' ' ')
    if [ "$pinned" != 'mvindex.(*Index).Reweight ucq.FingerprintQuery ' ]; then
        echo "keep rule: benchmark/ alone reaches \"$pinned\", want exactly mvindex.(*Index).Reweight ucq.FingerprintQuery"
        fail=1
    fi
    echo "keep rule: $(wc -l <"$dir/declared") functions, $(wc -l <"$dir/allowed") allowlisted, gate took $(( $(date +%s) - t0 ))s"
    exit $fail
)
reach_gate

# Serving boundary: the baselines of Section 6 (package baseline and the
# lifted, DPLL and MLN evaluators behind it, with the safe-plan query
# analysis — homomorphisms, minimisation — that lives in lift) are reached
# only from the experiment side — cmd/mvdb, mvbench, the examples — never
# from the server binary, and core, which the server links, imports none of
# them nor the serving cache.
for pkg in baseline lift wmc mln; do
    go list -deps ./cmd/mvdbd | grep -qx "mvdb/internal/$pkg" \
        && { echo "serving boundary: cmd/mvdbd links internal/$pkg"; exit 1; }
done
for pkg in lift wmc mln qcache; do
    go list -deps ./internal/core | grep -qx "mvdb/internal/$pkg" \
        && { echo "serving boundary: internal/core imports internal/$pkg"; exit 1; }
done
go list -deps ./cmd/mvdb ./cmd/mvbench | grep -qx mvdb/internal/baseline \
    || { echo "serving boundary: neither cmd/mvdb nor mvbench reaches internal/baseline"; exit 1; }

# All four binaries must build. The pointer MVIntersect is Fig. 9's baseline
# and nothing else: the served binary links neither its walk nor its entry
# point (mvbench must, or the check below looks for the wrong names).
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for cmd in dblpgen mvbench mvdb mvdbd; do
    go build -o "$bindir/$cmd" ./cmd/$cmd
done
fig9='mvindex\.(\(\*)?ptrWalk|mvindex\.\(\*Index\)\.MVIntersect'
go tool nm "$bindir/mvbench" | grep -E "$fig9" >/dev/null \
    || { echo "serving boundary: mvbench links no Fig. 9 baseline (symbol names changed?)"; exit 1; }
if go tool nm "$bindir/mvdbd" | grep -E "$fig9"; then
    echo "serving boundary: cmd/mvdbd links the Fig. 9 pointer MVIntersect"; exit 1
fi

go test -timeout 5m ./...
go test -race -timeout 10m ./...

# Singleflight hammer, explicitly under the race detector: concurrent
# identical queries with mid-flight cancellation through the cross-query
# cache (DESIGN.md §9's abort protocol only bites with the detector on).
go test -race -run 'TestSingleflightHammer|TestConcurrentHammer|TestMidFlightInvalidation' \
    -count=2 -timeout 5m ./internal/mvindex/ ./internal/qcache/

# Live-update hammer, explicitly under the race detector: readers racing
# update batches must only ever observe committed states (DESIGN.md §10's
# epoch protocol), crash recovery must replay every acknowledged batch even
# with fsync fault injection, the incrementally maintained segments must
# equal a from-scratch recompile after every batch, and a batch that fails
# after its WAL append must fail the server closed until a restart — a reader
# admitted before the failure and parked on the index lock included, and a
# follower whose shipped frame failed, which must then neither snapshot nor
# re-apply. Underneath, the engine's key table and column indexes, patched in
# place by every insert and delete, must answer like a naive scan after each
# write (chain order included), and racing first probes of a column must all
# see its full chains.
go test -race -run 'TestUpdateQueryInterleave|TestCrashRecovery|TestApplyMutationsEpoch|TestIncrementalAugmentEqualsRebuild|TestApplyFailureFailsClosed|TestFollowerApplyFailureFailsClosed|TestParkedReaderFailsClosed|TestStoreMax|TestConcurrentIndexBuild|TestTablesAgainstModel' \
    -count=2 -timeout 5m ./internal/server/ ./internal/mvindex/ ./internal/engine/

# Pipelined commit, explicitly under the race detector (DESIGN.md §10): the
# fsync runs beside the index apply and with the log unlocked, so the ack must
# provably wait for it, Rotate must serialise with a commit in flight, a lone
# writer must pay no window, and a failed write or fsync must fail the log for
# good instead of being retried.
go test -race -run 'TestGroupCommit|TestLoneWriterPaysNoWindow|TestSlowDiskBatches|TestGatherWaitsOnlyForSeenWriters|TestRotateRacesCommit|TestFailedLogStaysFailed|TestAckWaitsForFsync|TestCrashInsideCommit|TestServerGroupCommit|TestWALErrorIs5xx' \
    -count=2 -timeout 5m ./internal/wal/ ./internal/server/

# Replication hammer, explicitly under the race detector: the log-shipping
# stream survives dropped/duplicated/truncated/stalled frames (DESIGN.md §11),
# failover fences the old primary, and a stale follower refuses to serve.
# Every role shares one durable state (DESIGN.md §10): a follower restart
# recovers through the primary's recovery path, a rebootstrap past the
# primary's horizon persists its snapshot before it swaps the index in (and
# keeps the old index and cursor while it cannot), and a promotion keeps the
# one snapshotter, whose snapshots stay labelled with the applied position.
go test -race -run 'TestReplicationFaultHammer|TestPromoteFailover|TestFencingDemotesStalePrimary|TestFollowerStaleness503|TestRebootstrapPersistsBeforeServing|TestFollowerRebootstrapsPastHorizon|TestPromoteStopsFollowerSnapshotter|TestFollowerLocalRecovery' \
    -count=2 -timeout 5m ./internal/server/
go test -race -run 'TestReplayCorruptMidSegment|FuzzReplayCorrupt|TestFollowerGapForcesReconnect|TestFollowerStallWatchdog' \
    -count=2 -timeout 5m ./internal/wal/ ./internal/replica/

# Fuzz the /query body through the handler: no panic, a status of the
# degradation ladder, and every 200 body decodes to Index.Query's answers.
go test -run XXX -fuzz=FuzzQueryBody -fuzztime=10s ./internal/server/

# Fuzz the snapshot decoder: whatever the bytes, ReadSeq refuses them or
# returns an index that answers a query; it never panics, and no corrupt id
# sizes an allocation.
go test -run XXX -fuzz=FuzzReadSeq -fuzztime=10s ./internal/mvindex/

# Benchmark smoke: one iteration of the parallel-compile benchmark catches
# kernel or block-scheduler regressions that only manifest under the bench
# harness. Every run first compiles W at GOMAXPROCS 1 (the sequential loop)
# and at GOMAXPROCS 4 (four workers) and fails unless the OBDDs are identical.
go test -run=NONE -bench=BenchmarkParallelCompile -benchtime=1x -timeout 5m .

# Update-cost gate, on counts not clocks: the same 3-mutation batch must
# compile and augment the same blocks, copy no clean node, allocate about as
# often and under a third of the bytes the per-batch manager copy did, at
# DBLP domains 1000, 2000 and 4000 (work is O(dirty), not O(index)); the
# translation must hold the source's base relations themselves, so a built
# index keeps at most 0.8x the live heap of the cloning design at the same
# domains, and the engine must find tuples by position through flat int32
# tables, so it keeps at most 0.85x the live heap of the string-keyed engine
# (6.4/12.8/25.7 MB); a snapshot holds every tuple once; plus one iteration of
# the batch under the bench harness at both ends.
go test -v -run 'TestUpdateWorkIsODirty|TestTranslationSharesBaseRelations' -timeout 5m ./internal/mvindex/
go test -run=NONE -bench='BenchmarkApplyMutations/domain=(1000|4000)$' -benchtime=1x -timeout 5m ./internal/mvindex/

# Served-path smoke: one iteration of each in-process benchmark through
# Server.ServeHTTP at DBLP 4000 — a cached point query, an uncached one and a
# 3-mutation /update through Live and its WAL (EXPERIMENTS.md records their
# allocs/op, which repeat exactly at a fixed -benchtime).
go test -run=NONE -bench='BenchmarkServe(Hit|Miss|Update)$' -benchtime=1x -timeout 5m ./internal/server/

# Boot smoke: one iteration of mvdbd's offline phase at the served domain
# 4000 (generate, translate, compile ¬W), reporting each stage's time.
go test -run=NONE -bench='BenchmarkBoot$' -benchtime=1x -timeout 5m .

# Read-cost gate, on counts not clocks: the same 64 advisor-of-student
# queries must visit about as many pairs, span as many blocks and allocate
# about as often at DBLP domains 1000, 2000 and 4000 (an answer costs its
# span, not the index).
go test -v -run TestQueryWorkIsOSpan -timeout 5m ./internal/mvindex/

# The benchmark harness is a module of its own, which `go build ./...` and
# `go test ./...` above never reach: build, vet and test it here, so that a
# break of the internal API it compiles against shows up before the
# pipeline's benchmark run fails to compile.
(cd benchmark && go vet . && go test -timeout 5m .)

# Smoke test: boot mvdbd on a small dataset, hit /readyz, then verify that
# SIGTERM drains and exits 0 (the graceful-shutdown contract of DESIGN.md §7).
addr=127.0.0.1:18321
"$bindir/mvdbd" -addr "$addr" -authors 120 -query-timeout 10s &
mvdbd_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$mvdbd_pid" 2>/dev/null; echo "mvdbd never became ready"; exit 1; }
curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' >/dev/null

# Cache-correctness smoke: the same query twice — the second must be served
# from the cross-query cache (hits > 0 in /stats) with identical answers, and
# the answers must not be empty (student 1 has advisors at 120 authors; a
# student without any would compare two empty arrays).
first=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}')
second=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}')
a1=$(printf '%s' "$first"  | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
a2=$(printf '%s' "$second" | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
[ "$a1" = "$a2" ] || { echo "cache smoke: answers diverged: $a1 vs $a2"; kill "$mvdbd_pid"; exit 1; }
case "$a1" in '[{'*) ;; *) echo "cache smoke: no answers: $a1"; kill "$mvdbd_pid"; exit 1 ;; esac
curl -fsS "http://$addr/stats" | tr -d ' \n\t' | grep -q '"cache":{"enabled":true' \
    || { echo "cache smoke: cache not enabled in /stats"; kill "$mvdbd_pid"; exit 1; }
curl -fsS "http://$addr/stats" | tr -d ' \n\t' | sed 's/.*"answers"://' | grep -q '"hits":[1-9]' \
    || { echo "cache smoke: no cache hit recorded"; kill "$mvdbd_pid"; exit 1; }
# The cache keys on the query text: a renamed spelling is a miss of its own
# and must give the same answers. A /query body is one line of compact JSON,
# and a request body with data after its JSON value is refused.
plain=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(s, a) :- Advisor(s, a)"}' | sed 's/.*"answers"://;s/,"millis.*//')
renamed=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Other(x,y) :- Advisor(x,y)"}' | sed 's/.*"answers"://;s/,"millis.*//')
case "$plain" in '[{'*) ;; *) echo "cache smoke: no advisors answered: $plain"; kill "$mvdbd_pid"; exit 1 ;; esac
[ "$plain" = "$renamed" ] || { echo "cache smoke: renamed spelling diverged: $plain vs $renamed"; kill "$mvdbd_pid"; exit 1; }
[ "$(printf '%s\n' "$second" | wc -l)" = 1 ] \
    || { echo "cache smoke: /query body is not one line: $second"; kill "$mvdbd_pid"; exit 1; }
jcode=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"} trailing junk')
[ "$jcode" = 400 ] || { echo "cache smoke: trailing junk answered HTTP $jcode, want 400"; kill "$mvdbd_pid"; exit 1; }

kill -TERM "$mvdbd_pid"
wait "$mvdbd_pid"   # set -e fails the gate if the drain exits non-zero

# Crash-recovery smoke: boot mvdbd with a WAL, apply an acknowledged update,
# kill -9 (no drain, no snapshot), restart on the same WAL dir, and require
# the recovered answers to be byte-identical to the pre-crash ones (recovery
# here is a from-scratch deterministic rebuild plus WAL replay, so equality
# proves the log preserved the acknowledged mutation).
waldir=$(mktemp -d)
trap 'rm -rf "$bindir" "$waldir"' EXIT
addr=127.0.0.1:18322
"$bindir/mvdbd" -addr "$addr" -authors 120 -wal-dir "$waldir" -query-timeout 10s &
mvdbd_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$mvdbd_pid" 2>/dev/null; echo "mvdbd (wal) never became ready"; exit 1; }
before=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
curl -fsS -X POST "http://$addr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 9999], "weight": 2}]}' >/dev/null
mutated=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
case "$before" in '[{'*) ;; *) echo "crash smoke: no answers before the update: $before"; kill -9 "$mvdbd_pid"; exit 1 ;; esac
[ "$before" != "$mutated" ] || { echo "crash smoke: update did not change the answer"; kill -9 "$mvdbd_pid"; exit 1; }

# Commit-pipeline smoke, on counts not clocks: with the default flags (a 2 ms
# -group-commit ceiling) a lone client's sequential updates must get one fsync
# each — no shared, skipped or repeated commit — and every one of them must be
# durable by the time it was answered. The update above was the first of 20.
for i in $(seq 2 20); do
    curl -fsS -X POST "http://$addr/update" -H 'Content-Type: application/json' \
        -d "{\"mutations\": [{\"op\": \"reweight\", \"rel\": \"Advisor\", \"vals\": [1, 9999], \"weight\": $i}]}" >/dev/null
done
walstats=$(curl -fsS "http://$addr/stats" | tr -d ' \n\t' | sed 's/.*"wal":{//;s/}.*//')
for want in '"fsyncs":20' '"fsync_frames":20' '"synced_seq":20' '"frames":20'; do
    printf '%s' "$walstats" | grep -q "$want" \
        || { echo "commit smoke: want $want in live.wal, got {$walstats}"; kill -9 "$mvdbd_pid"; exit 1; }
done
# The reweights moved the answer again; this is what recovery must reproduce.
mutated=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
kill -9 "$mvdbd_pid"
wait "$mvdbd_pid" 2>/dev/null || true   # SIGKILL: non-zero by design
"$bindir/mvdbd" -addr "$addr" -authors 120 -wal-dir "$waldir" -query-timeout 10s &
mvdbd_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$mvdbd_pid" 2>/dev/null; echo "mvdbd never recovered from the WAL"; exit 1; }
recovered=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
[ "$mutated" = "$recovered" ] || { echo "crash smoke: recovery diverged: $mutated vs $recovered"; kill "$mvdbd_pid"; exit 1; }
curl -fsS "http://$addr/stats" | tr -d ' \n\t' | grep -q '"frames":20,' \
    || { echo "crash smoke: recovered WAL does not hold the 20 replayed frames"; kill "$mvdbd_pid"; exit 1; }
kill -TERM "$mvdbd_pid"
wait "$mvdbd_pid"

# Restart from the snapshot the drain just wrote: the server must boot from
# it (no synthetic DBLP is generated), and the restored index must keep the
# block record, so one structural insert is applied incrementally
# ("full":false). Advisor 8888 joins student 1 at advisor 9999's weight (20,
# after the reweights above), so it must answer with 9999's probability, bit
# for bit, one answer more than before.
[ -s "$waldir/index.snap" ] || { echo "restart smoke: the drain wrote no snapshot"; exit 1; }
"$bindir/mvdbd" -addr "$addr" -authors 120 -wal-dir "$waldir" -query-timeout 10s 2>"$waldir/boot.log" &
mvdbd_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$mvdbd_pid" 2>/dev/null; echo "mvdbd never restarted from its snapshot"; exit 1; }
if grep -q generating "$waldir/boot.log"; then
    echo "restart smoke: mvdbd rebuilt instead of loading its snapshot"; kill "$mvdbd_pid"; exit 1
fi
upd=$(curl -fsS -X POST "http://$addr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 8888], "weight": 20}]}')
printf '%s' "$upd" | grep -q '"full":false' \
    || { echo "restart smoke: the first structural batch after the restore recompiled in full: $upd"; kill "$mvdbd_pid"; exit 1; }
inserted=$(curl -fsS -X POST "http://$addr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
prob() { printf '%s' "$1" | tr '}' '\n' | sed -n "s/.*\"head\":\[$2\],\"prob\":\([^,]*\).*/\1/p"; }
rows() { printf '%s' "$1" | grep -o '"head"' | wc -l; }
[ -n "$(prob "$inserted" 8888)" ] && [ "$(prob "$inserted" 8888)" = "$(prob "$inserted" 9999)" ] \
    && [ "$(rows "$inserted")" = $(( $(rows "$recovered") + 1 )) ] \
    || { echo "restart smoke: the insert did not answer as predicted: $recovered -> $inserted"; kill "$mvdbd_pid"; exit 1; }
kill -TERM "$mvdbd_pid"
wait "$mvdbd_pid"

# Replication chaos smoke: boot a primary and a WAL-shipped follower, apply an
# acknowledged mutation batch, kill -9 the primary mid-stream, promote the
# follower, keep writing on the new primary, and require its answers to be
# byte-identical to a from-scratch rebuild that applied the same mutations in
# the same order (the determinism contract of DESIGN.md §11).
pwal=$(mktemp -d)
fwal=$(mktemp -d)
rwal=$(mktemp -d)
trap 'rm -rf "$bindir" "$waldir" "$pwal" "$fwal" "$rwal"' EXIT
paddr=127.0.0.1:18323
faddr=127.0.0.1:18324
raddr=127.0.0.1:18325
"$bindir/mvdbd" -addr "$paddr" -authors 120 -wal-dir "$pwal" -query-timeout 10s &
primary_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$paddr/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$primary_pid" 2>/dev/null; echo "chaos smoke: primary never became ready"; exit 1; }
"$bindir/mvdbd" -addr "$faddr" -replica-of "http://$paddr" -wal-dir "$fwal" \
    -max-staleness 30s -query-timeout 10s &
follower_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$faddr/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$follower_pid" "$primary_pid" 2>/dev/null; echo "chaos smoke: follower never bootstrapped"; exit 1; }

# Acknowledged batch on the primary; the stream must carry it to the follower.
curl -fsS -X POST "http://$paddr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 9999], "weight": 2}, {"op": "reweight", "rel": "Advisor", "vals": [1, 9999], "weight": 3}]}' >/dev/null
pans=$(curl -fsS -X POST "http://$paddr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
converged=0
for _ in $(seq 1 150); do
    fans=$(curl -fsS -X POST "http://$faddr/query" -H 'Content-Type: application/json' \
        -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//') || fans=""
    if [ -n "$fans" ] && [ "$fans" = "$pans" ]; then converged=1; break; fi
    sleep 0.1
done
[ "$converged" = 1 ] || { kill -9 "$follower_pid" "$primary_pid" 2>/dev/null; echo "chaos smoke: follower never converged: $fans vs $pans"; exit 1; }

# A follower must refuse writes while the primary is alive.
wcode=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$faddr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 8888], "weight": 1}]}')
[ "$wcode" = 503 ] || { kill -9 "$follower_pid" "$primary_pid" 2>/dev/null; echo "chaos smoke: follower accepted a write (HTTP $wcode)"; exit 1; }

# Kill the primary mid-stream (no drain), then promote the follower.
kill -9 "$primary_pid"
wait "$primary_pid" 2>/dev/null || true
curl -fsS -X POST "http://$faddr/replication/promote" | tr -d ' \n\t' | grep -q '"role":"primary"' \
    || { kill -9 "$follower_pid" 2>/dev/null; echo "chaos smoke: promote did not yield a primary"; exit 1; }
curl -fsS "http://$faddr/stats" | tr -d ' \n\t' | grep -q '"role":"primary"' \
    || { kill -9 "$follower_pid" 2>/dev/null; echo "chaos smoke: promoted node not reporting primary role"; exit 1; }

# The promoted node must accept writes and continue the mutation line.
curl -fsS -X POST "http://$faddr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 7777], "weight": 1.5}]}' >/dev/null
fans=$(curl -fsS -X POST "http://$faddr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')

# From-scratch rebuild: a fresh instance applying the same mutations in the
# same order must produce byte-identical answers.
"$bindir/mvdbd" -addr "$raddr" -authors 120 -wal-dir "$rwal" -query-timeout 10s &
rebuild_pid=$!
ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$raddr/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ "$ready" = 1 ] || { kill "$rebuild_pid" "$follower_pid" 2>/dev/null; echo "chaos smoke: rebuild instance never became ready"; exit 1; }
curl -fsS -X POST "http://$raddr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 9999], "weight": 2}, {"op": "reweight", "rel": "Advisor", "vals": [1, 9999], "weight": 3}]}' >/dev/null
curl -fsS -X POST "http://$raddr/update" -H 'Content-Type: application/json' \
    -d '{"mutations": [{"op": "insert", "rel": "Advisor", "vals": [1, 7777], "weight": 1.5}]}' >/dev/null
rans=$(curl -fsS -X POST "http://$raddr/query" -H 'Content-Type: application/json' \
    -d '{"query": "Q(a) :- Advisor(1,a)"}' | tr -d ' \n\t' | sed 's/.*"answers"://;s/,"millis.*//')
[ -n "$fans" ] && [ "$fans" = "$rans" ] \
    || { kill -9 "$rebuild_pid" "$follower_pid" 2>/dev/null; echo "chaos smoke: failover diverged from rebuild: $fans vs $rans"; exit 1; }

kill -TERM "$rebuild_pid"
wait "$rebuild_pid"
kill -TERM "$follower_pid"
wait "$follower_pid"   # promoted node must still drain cleanly

echo "ci.sh: all gates passed"
