package obdd

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// randSepDB builds a database for Q() :- R(x), S(x,y) with n separator
// values, random tuple probabilities, and some values missing from R or S so
// empty blocks and probe pruning are exercised.
func randSepDB(rng *rand.Rand, n int64) *engine.Database {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	for i := int64(1); i <= n; i++ {
		if rng.Intn(5) > 0 {
			db.MustInsert("R", rng.Float64()*3, engine.Int(i))
		}
		for j := int64(0); j < rng.Int63n(4); j++ {
			db.MustInsert("S", rng.Float64()*3, engine.Int(i), engine.Int(100+10*i+j))
		}
	}
	return db
}

// skewedSepDB builds a database for Q() :- R(x), S(x,y) whose blocks are
// badly unbalanced: one separator value carries many S tuples, among many
// values with none or one — the shape where a worker pulling one block at a
// time meets the oversized block at an arbitrary point of the schedule.
func skewedSepDB(rng *rand.Rand) *engine.Database {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	const values, heavy = 40, 17
	for i := int64(1); i <= values; i++ {
		db.MustInsert("R", rng.Float64()*3, engine.Int(i))
		n := rng.Int63n(2)
		if i == heavy {
			n = 200
		}
		for j := int64(0); j < n; j++ {
			db.MustInsert("S", rng.Float64()*3, engine.Int(i), engine.Int(1000*i+j))
		}
	}
	return db
}

// atProcs runs f with GOMAXPROCS set to n — the compile's fan-out width —
// and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// compileBoth compiles q at GOMAXPROCS 1 (the sequential reference) and at
// the given GOMAXPROCS, and returns both managers/roots plus their stats.
func compileBoth(t *testing.T, db *engine.Database, q ucq.UCQ, pi Perm, procs int) (ms *Manager, fs NodeID, ss CompileStats, mp *Manager, fp NodeID, sp CompileStats) {
	t.Helper()
	var errS, errP error
	atProcs(1, func() { ms, fs, ss, errS = Compile(db, q, pi, CompileOptions{}) })
	if errS != nil {
		t.Fatalf("sequential compile: %v", errS)
	}
	atProcs(procs, func() { mp, fp, sp, errP = Compile(db, q, pi, CompileOptions{}) })
	if errP != nil {
		t.Fatalf("parallel compile: %v", errP)
	}
	return
}

// assertSame checks the parallel result is structurally identical to the
// sequential reference: same node structure, size, width, stats, and
// bitwise-equal probability.
func assertSame(t *testing.T, db *engine.Database, ms *Manager, fs NodeID, ss CompileStats, mp *Manager, fp NodeID, sp CompileStats) {
	t.Helper()
	if !StructEqual(ms, fs, mp, fp) {
		t.Fatalf("parallel OBDD differs structurally from sequential")
	}
	if a, b := ms.Size(fs), mp.Size(fp); a != b {
		t.Errorf("size: sequential %d, parallel %d", a, b)
	}
	if a, b := ms.Width(fs), mp.Width(fp); a != b {
		t.Errorf("width: sequential %d, parallel %d", a, b)
	}
	if ss != sp {
		t.Errorf("stats: sequential %+v, parallel %+v", ss, sp)
	}
	probs := db.Probs()
	if a, b := ms.Prob(fs, probs), mp.Prob(fp, probs); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("prob: sequential %v, parallel %v (must be bitwise equal)", a, b)
	}
}

// TestParallelCompileStructEqual: over random separator databases and worker
// counts, the parallel block compilation must produce an OBDD structurally
// identical to the sequential reference — same nodes, stats, and
// bitwise-identical probability (GOMAXPROCS 1 is the spec). The skewed case
// puts one oversized block among many tiny and empty ones.
func TestParallelCompileStructEqual(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("query has no separator")
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randSepDB(rng, 3+rng.Int63n(12))
		pi := SeparatorFirstPerm(db, sep)
		for _, procs := range []int{2, 4, 8} {
			ms, fs, ss, mp, fp, sp := compileBoth(t, db, q, pi, procs)
			assertSame(t, db, ms, fs, ss, mp, fp, sp)
		}
	}
	t.Run("skewed", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			db := skewedSepDB(rand.New(rand.NewSource(seed)))
			pi := SeparatorFirstPerm(db, sep)
			ms, fs, ss, mp, fp, sp := compileBoth(t, db, q, pi, 4)
			assertSame(t, db, ms, fs, ss, mp, fp, sp)
		}
	})
}

// TestParallelCompileUnion: a union with a shared separator — the shape of
// the DBLP W queries — through the same equivalence check.
func TestParallelCompileUnion(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- S(x,z), S(x,w), z <> w").UCQ
	skip := ucq.SkipGround
	sep, ok := q.FindSeparatorSkip(skip)
	if !ok {
		t.Skip("no separator for the union")
	}
	for seed := int64(20); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randSepDB(rng, 4+rng.Int63n(8))
		pi := SeparatorFirstPerm(db, sep)
		ms, fs, ss, mp, fp, sp := compileBoth(t, db, q, pi, 4)
		assertSame(t, db, ms, fs, ss, mp, fp, sp)
	}
}

// TestParallelCompileSelfJoin: the V2 denial-view body falls back to lineage
// inside each block; the fallback must be reproduced identically by the
// parallel workers.
func TestParallelCompileSelfJoin(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	rng := rand.New(rand.NewSource(7))
	for s := int64(1); s <= 6; s++ {
		for j := int64(0); j <= rng.Int63n(3); j++ {
			db.MustInsert("Adv", rng.Float64(), engine.Int(s), engine.Int(100+10*s+j))
		}
	}
	q := ucq.MustParse("Q() :- Adv(x,a), Adv(x,b), a <> b").UCQ
	sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("self-join has no separator")
	}
	pi := SeparatorFirstPerm(db, sep)
	ms, fs, ss, mp, fp, sp := compileBoth(t, db, q, pi, 8)
	assertSame(t, db, ms, fs, ss, mp, fp, sp)
}

// TestImportAcrossManagers: Import must reproduce a function node-for-node
// in another manager over the same order, and refuse mismatched orders.
func TestImportAcrossManagers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randSepDB(rng, 6)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	m, f, _, err := Compile(db, q, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewScratch()
	g := s.Import(m, f)
	if !StructEqual(m, f, s, g) {
		t.Fatal("imported OBDD differs structurally")
	}
	if h := s.Import(s, g); h != g {
		t.Errorf("same-manager Import must be identity, got %v want %v", h, g)
	}
	// Importing from a manager with a different order must panic.
	db2 := engine.NewDatabase()
	db2.MustCreateRelation("R", false, "a")
	db2.MustInsert("R", 1, engine.Int(1))
	m2, f2, _, err := Compile(db2, ucq.MustParse("Q() :- R(x)").UCQ, IdentityPerm(db2), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Import across different orders must panic")
		}
	}()
	m.Import(m2, f2)
}
