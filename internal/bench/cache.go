package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

// ZipfWorkload is a repeated-query request mix: Requests draws from Queries
// with Zipf-distributed popularity (rank 0 hottest), the shape of real
// serving traffic where a few queries dominate. Hits counts, per distinct
// query, how many requests selected it.
type ZipfWorkload struct {
	Queries  []*ucq.Query
	Requests []int // indexes into Queries, in arrival order
	Hits     []int
}

// NewZipfWorkload draws a deterministic request sequence of length requests
// over the given distinct queries with Zipf skew s (s > 1; ~1.2 matches
// measured query-log popularity curves).
func NewZipfWorkload(queries []*ucq.Query, requests int, s float64, seed int64) *ZipfWorkload {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(len(queries)-1))
	w := &ZipfWorkload{Queries: queries, Hits: make([]int, len(queries))}
	for i := 0; i < requests; i++ {
		k := int(z.Uint64())
		w.Requests = append(w.Requests, k)
		w.Hits[k]++
	}
	return w
}

// Distinct reports how many distinct queries the request sequence touched.
func (w *ZipfWorkload) Distinct() int {
	n := 0
	for _, h := range w.Hits {
		if h > 0 {
			n++
		}
	}
	return n
}

// CacheServing measures the cross-query cache on a repeated Zipf workload:
// the same request sequence served with the cache off and on, per-request
// latencies split into cold (first occurrence of a query — a miss) and warm
// (repeat — an answer-cache hit), and a probability cross-check between the
// two legs (the cache must never change an answer, only its latency). With
// Options.Cache false the cached leg is skipped — the baseline-only ablation
// mvbench's -cache=false selects.
func CacheServing(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID: "cache",
		Title: fmt.Sprintf("cross-query cache on a Zipf request mix (requests=%d, distinct=%d, skew=1.2)",
			opts.CacheRequests, opts.CacheDistinct),
		Columns: []string{
			"aid1 domain", "requests", "distinct",
			"uncached(s)", "cached(s)", "speedup",
			"cold-miss(ms)", "warm-hit(ms)", "warm-speedup",
			"hit-rate", "same",
		},
	}
	for _, n := range opts.Domains {
		d, _, tr, err := pipeline(n, opts.Seed, "2")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		distinct := opts.CacheDistinct
		if distinct > len(d.Students) {
			distinct = len(d.Students)
		}
		queries := make([]*ucq.Query, distinct)
		for i := 0; i < distinct; i++ {
			// Alternate the fig5 and fig10 workloads, spread over the author
			// lists, so the mix has both cheap point lookups and the heavier
			// students-of-advisor scans — like real mixed serving traffic.
			if i%2 == 0 && len(d.Advisors) > 0 {
				k := (i / 2) * len(d.Advisors) / ((distinct + 1) / 2)
				queries[i] = dblp.QueryStudentsOfAdvisorID(d.Advisors[k])
			} else {
				queries[i] = dblp.QueryAdvisorOfStudent(d.Students[i*len(d.Students)/distinct])
			}
		}
		w := NewZipfWorkload(queries, opts.CacheRequests, 1.2, opts.Seed)

		// Untimed warmup over the distinct queries with caching suppressed:
		// fills the relation indexes and pools so the uncached leg is not
		// charged for one-off costs the cached leg would then dodge.
		for _, q := range w.Queries {
			if _, err := ix.Query(q, mvindex.IntersectOptions{DisableCache: true}); err != nil {
				return nil, err
			}
		}

		serve := func(disable bool) (time.Duration, []float64, []time.Duration, error) {
			var total time.Duration
			var probs []float64
			lat := make([]time.Duration, len(w.Requests))
			for i, k := range w.Requests {
				t0 := time.Now()
				rows, err := ix.Query(w.Queries[k], mvindex.IntersectOptions{DisableCache: disable})
				el := time.Since(t0)
				if err != nil {
					return 0, nil, nil, err
				}
				total += el
				lat[i] = el
				for _, r := range rows {
					probs = append(probs, r.Prob)
				}
			}
			return total, probs, lat, nil
		}

		tOff, pOff, _, err := serve(true)
		if err != nil {
			return nil, err
		}

		row := []string{fmt.Sprint(n), fmt.Sprint(len(w.Requests)), fmt.Sprint(w.Distinct()),
			seconds(tOff), "-", "-", "-", "-", "-", "-", "-"}
		t.addSeries("domain", float64(n))
		t.addSeries("uncached", tOff.Seconds())

		if opts.Cache {
			ix.EnableCache(qcache.Options{})
			tOn, pOn, lat, err := serve(false)
			if err != nil {
				return nil, err
			}
			same := len(pOff) == len(pOn)
			if same {
				for i := range pOff {
					if math.Abs(pOff[i]-pOn[i]) > 1e-12 {
						same = false
						break
					}
				}
			}
			// Sequential replay: the first request for each distinct query is
			// the cold miss, every later one is a warm answer-cache hit.
			var cold, warm time.Duration
			var nCold, nWarm int
			seen := make([]bool, len(w.Queries))
			for i, k := range w.Requests {
				if seen[k] {
					warm += lat[i]
					nWarm++
				} else {
					seen[k] = true
					cold += lat[i]
					nCold++
				}
			}
			coldAvg := cold.Seconds() / float64(nCold) * 1e3
			warmAvg := coldAvg
			if nWarm > 0 {
				warmAvg = warm.Seconds() / float64(nWarm) * 1e3
			}
			st := ix.CacheStats().Answers
			hitRate := 0.0
			if st.Hits+st.Misses > 0 {
				hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
			row[4] = seconds(tOn)
			row[5] = ratio(tOff, tOn)
			row[6] = fmt.Sprintf("%.4f", coldAvg)
			row[7] = fmt.Sprintf("%.4f", warmAvg)
			if warmAvg > 0 {
				row[8] = fmt.Sprintf("%.1fx", coldAvg/warmAvg)
			}
			row[9] = fmt.Sprintf("%.3f", hitRate)
			row[10] = fmt.Sprint(same)
			t.addSeries("cached", tOn.Seconds())
			t.addSeries("cold-miss-ms", coldAvg)
			t.addSeries("warm-hit-ms", warmAvg)
			t.addSeries("hit-rate", hitRate)
			ix.EnableCache(qcache.Options{Disable: true})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// cacheReport is the JSON shape of BENCH_cache.json.
type cacheReport struct {
	Requests int              `json:"requests"`
	Distinct int              `json:"distinct"`
	Rows     []cacheReportRow `json:"rows"`
}

type cacheReportRow struct {
	Domain       int     `json:"domain"`
	UncachedSec  float64 `json:"uncached_sec"`
	CachedSec    float64 `json:"cached_sec"`
	Speedup      float64 `json:"speedup"`
	ColdMissMs   float64 `json:"cold_miss_ms"`
	WarmHitMs    float64 `json:"warm_hit_ms"`
	WarmSpeedup  float64 `json:"warm_speedup"`
	AnswerHitPct float64 `json:"answer_hit_rate"`
}

// WriteCacheJSON renders the cache experiment's table as the BENCH_cache.json
// report consumed by CI and the README's numbers. It requires the cached leg
// (Options.Cache true).
func WriteCacheJSON(w io.Writer, t *Table, opts Options) error {
	if t.ID != "cache" {
		return fmt.Errorf("bench: WriteCacheJSON wants the cache table, got %q", t.ID)
	}
	if len(t.Series["cached"]) == 0 {
		return fmt.Errorf("bench: cache experiment ran without the cached leg (-cache=false); no report")
	}
	opts = opts.withDefaults()
	rep := cacheReport{Requests: opts.CacheRequests, Distinct: opts.CacheDistinct}
	for i := range t.Series["domain"] {
		off, on := t.Series["uncached"][i], t.Series["cached"][i]
		cold, warm := t.Series["cold-miss-ms"][i], t.Series["warm-hit-ms"][i]
		row := cacheReportRow{
			Domain:       int(t.Series["domain"][i]),
			UncachedSec:  off,
			CachedSec:    on,
			ColdMissMs:   cold,
			WarmHitMs:    warm,
			AnswerHitPct: t.Series["hit-rate"][i],
		}
		if on > 0 {
			row.Speedup = off / on
		}
		if warm > 0 {
			row.WarmSpeedup = cold / warm
		}
		rep.Rows = append(rep.Rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
