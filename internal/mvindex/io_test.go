package mvindex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	m := chainMVDB(25, 9)
	tr, ix := buildIndex(t, m)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != ix.Size() || back.Blocks() != ix.Blocks() {
		t.Errorf("size/blocks: %d/%d vs %d/%d", back.Size(), back.Blocks(), ix.Size(), ix.Blocks())
	}
	if math.Abs(back.ProbNotW()-ix.ProbNotW()) > 1e-12 {
		t.Errorf("P(¬W): %v vs %v", back.ProbNotW(), ix.ProbNotW())
	}
	// Query answers are identical through the loaded index.
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	want, err := baseline.New(tr).Query(q, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []bool{false, true} {
		got, err := back.Query(q, IntersectOptions{CacheConscious: cc})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("rows: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
				t.Errorf("cc=%v row %v: %v vs %v", cc, got[i].Head, got[i].Prob, want[i].Prob)
			}
		}
	}
}

func TestIndexLoadCorrupt(t *testing.T) {
	if _, err := Read(strings.NewReader("garbage")); err == nil {
		t.Error("corrupt index accepted")
	}
	// Truncated stream.
	m := chainMVDB(5, 1)
	_, ix := buildIndex(t, m)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated index accepted")
	}
	// An OBDD order that repeats a variable: an error, not a panic, so
	// -load-index, snapshot recovery and a follower's bootstrap fail cleanly.
	var snap indexSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Manager.Order[1] = snap.Manager.Order[0]
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSeq(&bad); err == nil {
		t.Error("index whose OBDD order repeats a variable accepted")
	}
}

// TestSnapshotVersionRejected: only mvindex-v4 loads. The same stream under
// the retired v3 magic (whose layout held the base relations twice) is
// refused with an error naming both magics; put back under v4 it
// round-trips.
func TestSnapshotVersionRejected(t *testing.T) {
	_, ix := buildIndex(t, chainMVDB(5, 1))
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	reencode := func(magic string) *bytes.Buffer {
		snap.Magic = magic
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	_, err := Read(reencode("mvindex-v3"))
	var ve *SnapshotVersionError
	if !errors.As(err, &ve) || ve.Found != "mvindex-v3" || ve.Supported != "mvindex-v4" {
		t.Fatalf("v3 magic: err = %v, want a SnapshotVersionError naming mvindex-v3 and mvindex-v4", err)
	}
	for _, magic := range []string{ve.Found, ve.Supported} {
		if !strings.Contains(err.Error(), magic) {
			t.Errorf("error %q does not name %s", err, magic)
		}
	}
	back, err := Read(reencode("mvindex-v4"))
	if err != nil {
		t.Fatalf("v4 round-trip: %v", err)
	}
	if back.Size() != ix.Size() || back.Blocks() != ix.Blocks() {
		t.Errorf("v4 round-trip: size/blocks %d/%d vs %d/%d", back.Size(), back.Blocks(), ix.Size(), ix.Blocks())
	}
}

func TestIndexSaveLoadFile(t *testing.T) {
	m := chainMVDB(8, 2)
	_, ix := buildIndex(t, m)
	path := t.TempDir() + "/test.mvx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != ix.Size() {
		t.Errorf("size %d vs %d", back.Size(), ix.Size())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveFileSyncsDir: a snapshot's rename is durable before SaveFileSeq
// returns — the directory holding it is fsynced after the renamed file is in
// place — so a caller truncating the covered WAL next cannot, after a power
// loss, find the old snapshot back with its log segments gone.
func TestSaveFileSyncsDir(t *testing.T) {
	_, ix := buildIndex(t, chainMVDB(8, 2))
	dir := t.TempDir()
	path := filepath.Join(dir, "index.snap")
	var synced []string
	prev := syncDir
	t.Cleanup(func() { syncDir = prev })
	syncDir = func(d string) error {
		if _, seq, err := LoadFileSeq(path); err != nil || seq != 7 {
			t.Errorf("directory synced before the snapshot was renamed into place (seq %d, %v)", seq, err)
		}
		synced = append(synced, d)
		return prev(d)
	}
	if err := ix.SaveFileSeq(path, 7); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directories synced: %q, want [%q]", synced, dir)
	}
	syncDir = func(string) error { return errors.New("injected dir fsync failure") }
	if err := ix.SaveFileSeq(path, 8); err == nil {
		t.Fatal("a failed directory fsync was not reported")
	}
}

func TestReweight(t *testing.T) {
	m := chainMVDB(6, 4)
	tr, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(1,a)")
	before, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Double every Advisor tuple weight in the translated database.
	adv := tr.DB.Relation("Adv")
	for _, tup := range adv.Tuples {
		tr.DB.SetWeight(tup.Var, tup.Weight*2)
	}
	ix.Reweight()
	after, err := ix.ProbBoolean(q.UCQ, IntersectOptions{CacheConscious: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-before) < 1e-9 {
		t.Error("reweight had no effect")
	}
	// The reweighted index must agree with a freshly built one.
	fresh, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-want) > 1e-9 {
		t.Errorf("reweighted = %v fresh = %v", after, want)
	}
}

func TestRestoreTranslationValidation(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	snap := core.TranslationSnapshot{NVRelations: []string{"NV_missing"}}
	if _, err := core.RestoreTranslation(db, snap); err == nil {
		t.Error("missing NV relation accepted")
	}
	q := ucq.MustParse("Q() :- Missing(x)")
	snap = core.TranslationSnapshot{W: q.UCQ}
	if _, err := core.RestoreTranslation(db, snap); err == nil {
		t.Error("missing W relation accepted")
	}
}

// tableMVDB is chainMVDB with a WeightTable-backed view, so the source MVDB
// survives snapshots.
func tableMVDB(n int64, seed int64) *core.MVDB {
	m := chainMVDB(n, seed)
	m.Views[0].Weights = &core.WeightTable{Default: 2.5}
	m.Views[0].Weight = nil
	return m
}

// TestIndexSaveLoadV2Mutable: a v2 snapshot carries the source MVDB and the
// WAL sequence number; the restored index accepts mutations and answers like
// an index built from scratch over the mutated source.
func TestIndexSaveLoadV2Mutable(t *testing.T) {
	m := tableMVDB(10, 21)
	_, ix := buildIndex(t, m)

	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 42); err != nil {
		t.Fatal(err)
	}
	back, seq, err := ReadSeq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("LastSeq: got %d want 42", seq)
	}
	if back.Source() == nil {
		t.Fatal("restored index lost its source MVDB")
	}
	batch := []core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(3), engine.Int(777)}, Weight: 0.8},
		{Op: core.MutDelete, Rel: "Adv", Vals: back.Source().DB.Relation("Adv").Tuples[0].Vals},
	}
	if _, err := back.ApplyMutations(batch); err != nil {
		t.Fatal(err)
	}
	_, ref := buildIndex(t, back.Source())
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	got, err := back.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Errorf("row %v: %v vs %v", got[i].Head, got[i].Prob, want[i].Prob)
		}
	}
}

// TestIndexSnapshotClosureDegrades: closure-weighted sources cannot be
// serialized; the snapshot degrades to query-only and mutation attempts on
// the restored index fail with a clear error.
func TestIndexSnapshotClosureDegrades(t *testing.T) {
	m := chainMVDB(6, 23) // closure weights
	_, ix := buildIndex(t, m)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source() != nil {
		t.Fatal("closure-weighted source should not survive the snapshot")
	}
	_, err = back.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(999)}, Weight: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "no source MVDB") {
		t.Fatalf("expected a no-source error, got %v", err)
	}
}

// TestSnapshotAfterManyBatches: an index maintained through 200 random
// structural and reweight batches, saved and loaded back, answers bitwise
// the same on both layouts — the restored segments are the maintained ones.
func TestSnapshotAfterManyBatches(t *testing.T) {
	m := multiAdvMVDB(12, 3)
	tableWeights(t, m)
	_, ix := buildIndex(t, m)
	st := newAdvState(rand.New(rand.NewSource(5)), ix.Source().DB)
	for b := 0; b < 200; b++ {
		if _, err := ix.ApplyMutations(st.batch()); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"Q(s) :- Adv(s,a)", "Q() :- Adv(s,a)", "Q(a) :- Adv(2,a)", "Q(s, a) :- Adv(s,a)"} {
		q := ucq.MustParse(src)
		for _, cc := range []bool{false, true} {
			got, err := back.Query(q, IntersectOptions{CacheConscious: cc})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.Query(q, IntersectOptions{CacheConscious: cc})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%q: %d answers restored, %d live", src, len(got), len(want))
			}
			for i := range want {
				if engine.TupleKey(got[i].Head) != engine.TupleKey(want[i].Head) || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
					t.Fatalf("%q (cc=%v) answer %d: restored %v %v, live %v %v", src, cc, i, got[i].Head, got[i].Prob, want[i].Head, want[i].Prob)
				}
			}
		}
	}
	gl, gs := back.LogProbNotW()
	wl, ws := ix.LogProbNotW()
	if math.Float64bits(gl) != math.Float64bits(wl) || gs != ws {
		t.Fatalf("P0(¬W): restored (%v, %d), live (%v, %d)", gl, gs, wl, ws)
	}
}
