package mvindex

import (
	"hash/maphash"
	"sync/atomic"

	"mvdb/internal/core"
	"mvdb/internal/qcache"
)

// indexCache is the cross-query memoization state of one Index: the answer
// cache (query text → answer set) and the aggregated apply-cache counters of
// the per-query scratch managers.
type indexCache struct {
	answers *qcache.Cache[[]core.Answer]

	// applyHits/applyMisses accumulate the OBDD apply-cache counters of the
	// scratch managers that per-query OBDD synthesis runs in.
	applyHits, applyMisses atomic.Uint64
}

// CacheStats is the /stats view of an Index's memoization layer.
type CacheStats struct {
	Enabled bool         `json:"enabled"`
	Answers qcache.Stats `json:"answers"`
	// QueryApplyHits/Misses aggregate the OBDD apply-cache counters of the
	// scratch managers used by query evaluation since the cache was enabled.
	QueryApplyHits   uint64 `json:"query_apply_hits"`
	QueryApplyMisses uint64 `json:"query_apply_misses"`
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
	ix.cache = &indexCache{answers: qcache.New(opts, answerBytes)}
}

// CacheStats returns a snapshot of the memoization counters.
func (ix *Index) CacheStats() CacheStats {
	if ix.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:          true,
		Answers:          ix.cache.answers.Stats(),
		QueryApplyHits:   ix.cache.applyHits.Load(),
		QueryApplyMisses: ix.cache.applyMisses.Load(),
	}
}

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
// entry-shortcut ablation bit is folded in so an ablation run never reads
// the entries of a shortcut run (the two agree semantically but may differ
// in final-ulp rounding).
func cacheKeyForText(text string, opts IntersectOptions) qcache.Key {
	k := qcache.Key{Hi: maphash.String(textSeeds[0], text), Lo: maphash.String(textSeeds[1], text)}
	if opts.NoEntryShortcut {
		k.Lo ^= 2
	}
	return k
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
