package ucq

import "hash/fnv"

// FingerprintQuery returns a hash of q's printed text, the text
// mvindex.Index.Query keys the answer cache on.
//
// Deprecated: a query's identity is its text and nothing serves with this
// hash. It remains only because the benchmark harness's trace still times
// it as a fingerprint stage; it goes when that trace does.
func FingerprintQuery(q *Query) uint64 {
	h := fnv.New64a()
	h.Write([]byte(q.String()))
	return h.Sum64()
}
