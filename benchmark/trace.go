package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
	"mvdb/internal/wal"
)

// The traced run replays this many of the workload's reads and writes.
const (
	traceReads  = 2000
	traceWrites = 60
)

// span is one call into a layer. Spans of one request share its number; a
// span's parent is the span that caused it, 0 for a request's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // from the start of the traced run
	End     int64  `json:"end_ns"`
	// Estimated marks a child that was not timed in place: the layer above
	// has no seam there, so the same call was timed on its own right after
	// the request and laid at the start of its parent.
	Estimated bool `json:"estimated,omitempty"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// estimatedChild lays a child of the given duration at the start of its
// parent, cut to the parent's length.
func (t *tracer) estimatedChild(parent int, name string, d time.Duration) {
	p := t.spans[parent-1]
	end := p.Start + d.Nanoseconds()
	if end > p.End {
		end = p.End
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: p.Request, Name: name,
		Start: p.Start, End: end, Estimated: true,
	})
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover. Children may overlap each other and may
// stick out of the parent; only what lies inside the parent is subtracted,
// and only once.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerShare is one layer's part of one kind of request in the traced run.
type layerShare struct {
	Request string  `json:"request"` // "read" or "write"
	Layer   string  `json:"layer"`   // the span name; the request's own name is the time between spans
	P50Us   float64 `json:"self_p50_us"`
	Share   float64 `json:"share"` // of the summed request time
}

// layerTimes sums self time by span name under each root span of one kind
// (the root's name), in microseconds: one value per root for every layer, and
// under the kind's own name the time between the spans.
func layerTimes(spans []span, kind string) map[string][]float64 {
	self := selfTimes(spans)
	slot := map[int]int{} // id of a root of this kind -> index into the value slices
	for _, s := range spans {
		if s.Parent == 0 && s.Name == kind {
			slot[s.ID] = len(slot)
		}
	}
	perLayer := map[string][]float64{}
	for i, s := range spans {
		root := s
		for root.Parent != 0 {
			root = spans[root.Parent-1]
		}
		j, ok := slot[root.ID]
		if !ok {
			continue
		}
		if perLayer[s.Name] == nil {
			perLayer[s.Name] = make([]float64, len(slot))
		}
		perLayer[s.Name][j] += float64(self[i]) / 1e3
	}
	return perLayer
}

// shares turns the layer times of one kind of request into the report's rows,
// and returns how much of the summed request time fell inside named layers
// rather than between them.
func shares(perLayer map[string][]float64, kind string) (rows []layerShare, coverage float64) {
	total := 0.0
	for _, vals := range perLayer {
		for _, v := range vals {
			total += v
		}
	}
	for name, vals := range perLayer {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		rows = append(rows, layerShare{Request: kind, Layer: name, P50Us: median(vals), Share: sum / total})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Share > rows[j].Share })
	gaps := 0.0
	for _, v := range perLayer[kind] {
		gaps += v
	}
	return rows, 1 - gaps/total
}

// tracedRun replays a fixed sample of the workload's requests in this
// process, through the public functions of each layer in the order the
// server calls them, with a span around each call. It runs after the timed
// run and shares nothing with it, so its cost touches no end-to-end number.
// The per-layer metrics go into pl, the spans into out/trace_<workload>.json.
func tracedRun(cfg runConfig, ds *dataset, pl map[string]metric) ([]layerShare, error) {
	sp := cfg.sp
	ix, err := referenceIndex(sp.domain, nil)
	if err != nil {
		return nil, err
	}
	ix.EnableCache(qcache.Options{MaxEntries: sp.cacheEntries})
	gen := newGenerator(sp, ds, cfg.seed)
	t := &tracer{t0: time.Now()}

	// Reads, as Server.handleQuery runs them: parse, fingerprint (the cache
	// key), validate, lineage, one intersection per answer, encode.
	var answers, nodes, pairs, blocks float64
	opts := mvindex.IntersectOptions{CacheConscious: true, DisableCache: true}
	for req := 1; req <= traceReads; req++ {
		text := ds.queries[gen.read(0)].text
		root := t.begin("read", 0, req)
		id := t.begin("ucq.Parse", root, req)
		q, err := ucq.Parse(text)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("ucq.FingerprintQuery", root, req)
		ucq.FingerprintQuery(q)
		t.end(id)
		id = t.begin("core.ValidateQuery", root, req)
		err = ix.Translation().ValidateQuery(q.UCQ)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("ucq.Eval", root, req)
		rows, err := ucq.Eval(ix.Translation().DB, q)
		t.end(id)
		if err != nil {
			return nil, err
		}
		resp := queryResponse{Answers: make([]answer, len(rows))}
		intersects := make([]int, len(rows))
		for i, r := range rows {
			intersects[i] = t.begin("mvindex.IntersectLineage", root, req)
			p, err := ix.IntersectLineage(r.Lineage, opts)
			t.end(intersects[i])
			if err != nil {
				return nil, err
			}
			resp.Answers[i] = answer{Head: headOf(r.Head), Prob: p}
		}
		id = t.begin("json.Encode", root, req)
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		t.end(id)
		t.end(root)
		if err != nil {
			return nil, err
		}

		// After the request, so that they cost it nothing: the query-OBDD
		// compile that IntersectLineage does inside (it has no seam between
		// compile and intersect), the exact traversal counts, and the same
		// query served from a warm answer cache.
		for i, r := range rows {
			t0 := time.Now()
			qm := ix.Manager().NewScratch()
			f := obdd.BuildDNF(qm, r.Lineage)
			t.estimatedChild(intersects[i], "obdd.BuildDNF", time.Since(t0))
			nodes += float64(qm.Size(f))
			ex, err := ix.ExplainLineage(r.Lineage, mvindex.IntersectOptions{})
			if err != nil {
				return nil, err
			}
			pairs += float64(ex.PairsVisited)
			blocks += float64(ex.LastBlock - ex.EntryBlock + 1)
		}
		answers += float64(len(rows))
		if _, err := ix.Query(q, mvindex.IntersectOptions{CacheConscious: true}); err != nil {
			return nil, err
		}
		id = t.begin("probe:qcache.hit", 0, req)
		_, err = ix.Query(q, mvindex.IntersectOptions{CacheConscious: true})
		t.end(id)
		if err != nil {
			return nil, err
		}
	}

	// Writes, as Live.applyBatch runs them: validate, encode, WAL append,
	// apply to the index, fsync. Request 0 of the stream is the warm-up full
	// compile and is not traced.
	walDir := filepath.Join(cfg.workDir, "trace-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir, wal.Options{GroupCommit: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer log.Close() // closed and checked below on the success path
	if _, err := ix.ApplyMutations(gen.write(0).core()); err != nil {
		return nil, err
	}
	for k := 1; k <= traceWrites; k++ {
		req := traceReads + k
		batch := gen.write(k).core()
		root := t.begin("write", 0, req)
		id := t.begin("core.ValidateBatch", root, req)
		err := ix.Source().ValidateBatch(batch)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("core.EncodeMutations", root, req)
		rec, err := core.EncodeMutations(batch)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("wal.Append", root, req)
		_, err = log.Append(rec)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("mvindex.ApplyMutations", root, req)
		_, err = ix.ApplyMutations(batch)
		t.end(id)
		if err != nil {
			return nil, err
		}
		id = t.begin("wal.Sync", root, req)
		err = log.Sync()
		t.end(id)
		t.end(root)
		if err != nil {
			return nil, err
		}
		// Reweight is rebuild() and nothing else: the whole-index share of
		// the apply above.
		id = t.begin("probe:mvindex.Reweight", 0, req)
		ix.Reweight()
		t.end(id)
	}
	if err := log.Close(); err != nil {
		return nil, err
	}

	reads := layerTimes(t.spans, "read")
	writes := layerTimes(t.spans, "write")
	hit := layerTimes(t.spans, "probe:qcache.hit")
	reweight := layerTimes(t.spans, "probe:mvindex.Reweight")
	us := func(vals []float64) metric { return metric{median(vals), "us"} }
	ms := func(vals []float64) metric { return metric{median(vals) / 1e3, "ms"} }
	pl["ucq.parse_us"] = us(reads["ucq.Parse"])
	pl["ucq.canon_us"] = us(reads["ucq.FingerprintQuery"])
	pl["core.validate_query_us"] = us(reads["core.ValidateQuery"])
	pl["engine.lineage_us"] = us(reads["ucq.Eval"])
	pl["engine.answers_per_query"] = metric{answers / traceReads, "count"}
	pl["obdd.query_compile_us"] = us(reads["obdd.BuildDNF"])
	pl["obdd.query_nodes"] = metric{nodes / traceReads, "count"}
	pl["mvindex.intersect_us"] = us(reads["mvindex.IntersectLineage"])
	pl["mvindex.pairs_visited"] = metric{pairs / traceReads, "count"}
	pl["mvindex.blocks_in_span"] = metric{blocks / max(answers, 1), "count"}
	pl["server.encode_us"] = us(reads["json.Encode"])
	pl["qcache.hit_us"] = us(hit["probe:qcache.hit"])
	pl["core.validate_us"] = us(writes["core.ValidateBatch"])
	pl["core.encode_us"] = us(writes["core.EncodeMutations"])
	pl["wal.append_us"] = us(writes["wal.Append"])
	pl["wal.sync_ms"] = ms(writes["wal.Sync"])
	pl["mvindex.apply_ms"] = ms(writes["mvindex.ApplyMutations"])
	pl["mvindex.rebuild_ms"] = ms(reweight["probe:mvindex.Reweight"])

	readRows, readCover := shares(reads, "read")
	writeRows, writeCover := shares(writes, "write")
	pl["trace.read_coverage"] = metric{readCover, "ratio"}
	pl["trace.write_coverage"] = metric{writeCover, "ratio"}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace_%s.json", sp.name))
	b, err := json.Marshal(map[string]any{"workload": sp.name, "seed": cfg.seed, "spans": t.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return append(readRows, writeRows...), nil
}
