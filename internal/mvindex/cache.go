package mvindex

import (
	"hash/maphash"
	"sync/atomic"

	"mvdb/internal/core"
	"mvdb/internal/qcache"
)

// indexCache is the cross-query memoization state of one Index: the answer
// cache (query text → answer set), the lineage cache below
// it (canonical lineage hash → probability, shared across queries whose
// per-answer lineages coincide), and the aggregated apply-cache counters of
// the per-query scratch managers.
type indexCache struct {
	answers *qcache.Cache[[]core.Answer]
	lineage *qcache.Cache[float64]

	// applyHits/applyMisses accumulate the OBDD apply-cache counters of the
	// scratch managers that per-query OBDD synthesis runs in (the shared
	// manager is frozen and never applies on the read path).
	applyHits, applyMisses atomic.Uint64
}

// CacheStats is the /stats view of an Index's memoization layer.
type CacheStats struct {
	Enabled bool         `json:"enabled"`
	Answers qcache.Stats `json:"answers"`
	Lineage qcache.Stats `json:"lineage"`
	// QueryApplyHits/Misses aggregate the OBDD apply-cache counters of the
	// scratch managers used by query evaluation since the cache was enabled.
	QueryApplyHits   uint64 `json:"query_apply_hits"`
	QueryApplyMisses uint64 `json:"query_apply_misses"`
	// SharedApplyHits/Misses are the counters of Manager() (it starts
	// empty on every structural batch).
	SharedApplyHits   uint64 `json:"shared_apply_hits"`
	SharedApplyMisses uint64 `json:"shared_apply_misses"`
}

// EnableCache installs the cross-query cache with the given bounds (or
// removes it with opts.Disable). Like Reweight this is a
// mutating operation: it requires exclusive access to the index. Once
// enabled, the cache is consulted and filled by the concurrent read path
// (Query, ProbBoolean, IntersectLineage) unless a call opts out with
// IntersectOptions.DisableCache.
func (ix *Index) EnableCache(opts qcache.Options) {
	if opts.Disable {
		ix.cache = nil
		return
	}
	ix.cache = &indexCache{
		answers: qcache.New(opts, answerBytes),
		// The lineage cache stores one float64 per entry; entries are tiny
		// and fixed-size, so the entry bound dominates. Give it 4x the
		// answer cache's entry budget (several lineages per answer set) and
		// keep it out of the byte budget.
		lineage: qcache.New(qcache.Options{
			MaxEntries: 4 * entriesOrDefault(opts.MaxEntries),
			MaxBytes:   -1,
		}, func(float64) int64 { return lineageEntryBytes }),
	}
}

// CacheStats returns a snapshot of the memoization counters. The shared
// apply counters are read from the frozen manager, which is safe under the
// index's read contract.
func (ix *Index) CacheStats() CacheStats {
	st := CacheStats{}
	st.SharedApplyHits, st.SharedApplyMisses = ix.ch.ord.ApplyCacheStats()
	if ix.cache == nil {
		return st
	}
	st.Enabled = true
	st.Answers = ix.cache.answers.Stats()
	st.Lineage = ix.cache.lineage.Stats()
	st.QueryApplyHits = ix.cache.applyHits.Load()
	st.QueryApplyMisses = ix.cache.applyMisses.Load()
	return st
}

func entriesOrDefault(n int) int {
	if n == 0 {
		return qcache.DefaultMaxEntries
	}
	if n < 0 {
		return qcache.DefaultMaxEntries // unlimited answers; keep lineage bounded
	}
	return n
}

// lineageEntryBytes is the approximate retained size of one lineage-cache
// entry (map bucket + LRU element + entry struct).
const lineageEntryBytes = 96

// answerBytes estimates the retained bytes of a cached answer set: slice
// headers, head values, and per-entry bookkeeping.
func answerBytes(as []core.Answer) int64 {
	n := int64(64) // entry + LRU element overhead
	for _, a := range as {
		n += 32 // Answer struct + slice header
		for _, v := range a.Head {
			n += 24 + int64(len(v.Str))
		}
	}
	return n
}

// textSeeds seed the two 64-bit halves of the answer-cache key. The keys
// live only in this process's memory, so a per-process random seed is
// enough, and it keeps a client from precomputing a collision.
var textSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// cacheKeyForText derives the answer-cache key of a query text under the
// given options: a 128-bit hash of the text exactly as sent, with no
// whitespace normalised (it is significant inside quoted constants). The
// intersection algorithm bits are folded in so ablation runs comparing
// algorithm variants never read each other's entries (the variants agree
// semantically but may differ in final-ulp rounding).
func cacheKeyForText(text string, opts IntersectOptions) qcache.Key {
	return qcache.Key{
		Hi: maphash.String(textSeeds[0], text),
		Lo: maphash.String(textSeeds[1], text) ^ algBits(opts),
	}
}

// cacheKeyForLineage derives the lineage-cache key of one answer lineage.
func cacheKeyForLineage(hi, lo uint64, opts IntersectOptions) qcache.Key {
	return qcache.Key{Hi: hi, Lo: lo ^ algBits(opts)}
}

func algBits(opts IntersectOptions) uint64 {
	var b uint64
	if opts.CacheConscious {
		b |= 1
	}
	if opts.NoEntryShortcut {
		b |= 2
	}
	return b
}

// copyAnswers returns a shallow copy of a cached answer slice so a caller
// that sorts or appends cannot disturb the cached copy (the Head slices stay
// shared and must be treated as immutable — every in-tree consumer only
// reads them).
func copyAnswers(as []core.Answer) []core.Answer {
	out := make([]core.Answer, len(as))
	copy(out, as)
	return out
}
