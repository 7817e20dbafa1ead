package obdd

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestUniqueTableGrowth drives the open-addressing unique table through many
// growth cycles and checks that every node stays findable and no duplicate
// ids appear.
func TestUniqueTableGrowth(t *testing.T) {
	order := make([]int, 64)
	for i := range order {
		order[i] = i + 1
	}
	m := NewManager(order)
	rng := rand.New(rand.NewSource(42))
	made := map[[3]int32]NodeID{}
	for i := 0; i < 20000; i++ {
		level := int32(rng.Intn(64))
		// Children must sit at deeper levels or be terminals; terminals are
		// enough to exercise the table.
		lo, hi := NodeID(rng.Intn(2)), NodeID(rng.Intn(2))
		if lo == hi {
			hi = 1 - lo
		}
		id := m.MkNode(level, lo, hi)
		key := [3]int32{level, int32(lo), int32(hi)}
		if prev, ok := made[key]; ok && prev != id {
			t.Fatalf("triple %v consed to %d then %d", key, prev, id)
		}
		made[key] = id
	}
	if got, want := len(made)+2, m.NumNodes(); got != want {
		t.Fatalf("unique triples %d + terminals != node count %d", got, want)
	}
	// Every recorded triple must still hash-cons to its original id.
	for key, id := range made {
		if got := m.MkNode(key[0], NodeID(key[1]), NodeID(key[2])); got != id {
			t.Fatalf("triple %v re-consed to %d, want %d", key, got, id)
		}
	}
}

// TestApplyCacheDirectMapped checks the lossy cache contract: hits return
// what was stored, colliding keys overwrite.
func TestApplyCacheDirectMapped(t *testing.T) {
	var c applyCache
	c.init(1 << 10)
	k1 := applyKeyPack(opOr, 5, 9)
	k2 := applyKeyPack(opAnd, 5, 9)
	c.put(k1, 77)
	if r, ok := c.get(k1); !ok || r != 77 {
		t.Fatalf("get(k1) = %d, %v", r, ok)
	}
	if _, ok := c.get(k2); ok {
		t.Fatal("different op hit the same entry as a match")
	}
	// Force a collision: two keys landing on the same slot overwrite.
	mask := uint64(len(c.keys) - 1)
	var k3 uint64
	for f := NodeID(2); ; f++ {
		k3 = applyKeyPack(opOr, f, 9)
		if k3 != k1 && (k3*mixA)>>32&mask == (k1*mixA)>>32&mask {
			break
		}
	}
	c.put(k3, 88)
	if _, ok := c.get(k1); ok {
		t.Fatal("overwritten entry still hits")
	}
	if r, ok := c.get(k3); !ok || r != 88 {
		t.Fatalf("get(k3) = %d, %v", r, ok)
	}
}

// TestApplyCacheGrowth: the cache doubles with the node store up to its cap,
// keeping surviving entries, and never exceeds max.
func TestApplyCacheGrowth(t *testing.T) {
	var c applyCache
	c.init(512)
	if len(c.keys) != applyCacheInitial {
		t.Fatalf("initial size %d, want %d", len(c.keys), applyCacheInitial)
	}
	c.maybeGrow(1 << 20)
	if len(c.keys) != 512 {
		t.Fatalf("grown size %d, want cap 512", len(c.keys))
	}
	c.init(1 << 10)
	k := applyKeyPack(opOr, 3, 7)
	c.put(k, 42)
	c.maybeGrow(1 << 9)
	if len(c.keys) != 1<<9 {
		t.Fatalf("grown size %d, want %d", len(c.keys), 1<<9)
	}
	if r, ok := c.get(k); !ok || r != 42 {
		t.Fatalf("entry lost across growth: %d, %v", r, ok)
	}
}

// TestNodeMemoEpochReset: reusing a pooled memo must not leak entries from
// the previous epoch, across many reset cycles.
func TestNodeMemoEpochReset(t *testing.T) {
	mm := getNodeMemo(100, true)
	mm.put(7, 42)
	if r, ok := mm.get(7); !ok || r != 42 {
		t.Fatalf("get(7) = %d, %v", r, ok)
	}
	putNodeMemo(mm)
	for i := 0; i < 10; i++ {
		mm = getNodeMemo(100, true)
		if _, ok := mm.get(7); ok {
			t.Fatalf("cycle %d: stale entry visible after reset", i)
		}
		mm.put(7, NodeID(i))
		putNodeMemo(mm)
	}
}

// TestNodeMemoSparseFallback: a small-query memo over a huge id space uses
// the map fallback instead of allocating a dense array.
func TestNodeMemoSparseFallback(t *testing.T) {
	mm := new(nodeMemo)
	mm.reset(sparseMemoCutoff+1, false)
	if mm.sparse == nil {
		t.Fatal("expected sparse fallback for a huge, non-dense reset")
	}
	mm.put(NodeID(sparseMemoCutoff), 9)
	if r, ok := mm.get(NodeID(sparseMemoCutoff)); !ok || r != 9 {
		t.Fatalf("sparse get = %d, %v", r, ok)
	}
	if _, ok := mm.get(3); ok {
		t.Fatal("sparse memo invented an entry")
	}
	// A dense reset promises full-cone traversal and always goes dense.
	mm.reset(64, true)
	if mm.sparse != nil {
		t.Fatal("dense reset kept the sparse map")
	}
	// Epoch wrap forces a real clear instead of serving stale stamps.
	mm.put(5, 11)
	mm.epoch = ^uint32(0)
	mm.stamp[5] = mm.epoch
	mm.reset(64, true)
	if _, ok := mm.get(5); ok {
		t.Fatal("entry survived an epoch wrap")
	}
}

// TestFloatMemoSparseFallback mirrors the nodeMemo fallback for floatMemo.
func TestFloatMemoSparseFallback(t *testing.T) {
	mm := new(floatMemo)
	mm.reset(sparseMemoCutoff+1, false)
	if mm.sparse == nil {
		t.Fatal("expected sparse fallback for a huge, non-dense reset")
	}
	mm.put(NodeID(12345), 0.5)
	if r, ok := mm.get(NodeID(12345)); !ok || r != 0.5 {
		t.Fatalf("sparse get = %g, %v", r, ok)
	}
	mm.reset(64, true)
	if mm.sparse != nil {
		t.Fatal("dense reset kept the sparse map")
	}
}

// TestMemoGrowthIsGeometric: a caller that borrows a dense memo once per step
// while the manager grows — here a 2000-link OrDisjoint chain — must allocate
// O(nodes) bytes in total. Sizing the memo at exactly the current node count
// reallocated two manager-sized slices per link, O(links × nodes).
func TestMemoGrowthIsGeometric(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops pooled memos at random, so every link may start from an empty one")
	}
	const links, width = 2000, 3
	order := make([]int, links*width)
	for i := range order {
		order[i] = i + 1
	}
	// No collection during the measurement: a GC empties the sync.Pool and
	// would charge the chain for fresh memos.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewManager(order)
	acc := False
	for i := links - 1; i >= 0; i-- {
		block := True
		for l := width - 1; l >= 0; l-- {
			block = m.MkNode(int32(i*width+l), False, block)
		}
		acc = m.OrDisjoint(block, acc)
	}
	runtime.ReadMemStats(&after)
	if got := m.Size(acc); got != links*width {
		t.Fatalf("chain has %d nodes, want %d", got, links*width)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(256 * m.NumNodes()); bytes > limit {
		t.Fatalf("%d-link chain over %d nodes allocated %d bytes (limit %d): memo growth is not geometric",
			links, m.NumNodes(), bytes, limit)
	}
}
