package mvindex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	m := chainMVDB(25, 9)
	tr, ix := buildIndex(t, m)

	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := readIndex(&buf)
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
	got, err := back.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
			t.Errorf("row %v: %v vs %v", got[i].Head, got[i].Prob, want[i].Prob)
		}
	}
	checkPointer(t, back, q, got)
}

func TestIndexLoadCorrupt(t *testing.T) {
	if _, err := readIndex(strings.NewReader("garbage")); err == nil {
		t.Error("corrupt index accepted")
	}
	// Truncated stream.
	m := chainMVDB(5, 1)
	_, ix := buildIndex(t, m)
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readIndex(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
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
	// A relation that holds a tuple twice, or a tuple of the wrong arity:
	// an error naming the relation, not a duplicate Lookup finds or a panic
	// on the first column probe.
	for what, corrupt := range map[string]func(*engine.RelationSnapshot){
		"a repeated tuple": func(r *engine.RelationSnapshot) { r.Tuples = append(r.Tuples, r.Tuples[0]) },
		"a short tuple":    func(r *engine.RelationSnapshot) { r.Tuples[0].Vals = r.Tuples[0].Vals[:len(r.Tuples[0].Vals)-1] },
	} {
		var s indexSnapshot
		if err := gob.NewDecoder(bytes.NewReader(reencoded(t, ix))).Decode(&s); err != nil {
			t.Fatal(err)
		}
		rel := &s.DB.Relations[0]
		corrupt(rel)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSeq(&b); err == nil || !strings.Contains(err.Error(), rel.Name) {
			t.Errorf("index whose relation %s holds %s: err = %v, want an error naming it", rel.Name, what, err)
		}
	}
}

// reencoded returns the index's snapshot stream.
func reencoded(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotVersionRejected: only mvindex-v5 loads. The same stream under
// the retired v3 magic is refused with an error naming both magics, and so
// is a stream in v4's layout, whose view weight tables and block provenance
// were gob maps: it decodes (the map fields are skipped) and is refused by
// its magic, not by a gob type error. Put back under v5 the stream
// round-trips.
func TestSnapshotVersionRejected(t *testing.T) {
	_, ix := buildIndex(t, chainMVDB(5, 1))
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	encode := func(v any) *bytes.Buffer {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	reencode := func(magic string) *bytes.Buffer {
		snap.Magic = magic
		return encode(snap)
	}
	_, err := readIndex(reencode("mvindex-v3"))
	var ve *SnapshotVersionError
	if !errors.As(err, &ve) || ve.Found != "mvindex-v3" || ve.Supported != "mvindex-v5" {
		t.Fatalf("v3 magic: err = %v, want a SnapshotVersionError naming mvindex-v3 and mvindex-v5", err)
	}
	for _, magic := range []string{ve.Found, ve.Supported} {
		if !strings.Contains(err.Error(), magic) {
			t.Errorf("error %q does not name %s", err, magic)
		}
	}
	// v4's layout: the same fields, with the weight table and the block
	// provenance as maps.
	type v4View struct {
		Name    string
		Head    []string
		Def     ucq.UCQ
		Weights core.WeightTable
	}
	v4 := struct {
		Magic       string
		DB          engine.DatabaseSnapshot
		Translation core.TranslationSnapshot
		Manager     obdd.Snapshot
		Root        int32
		HasSource   bool
		Views       []v4View
		Opts        core.TranslateOptions
		LastSeq     uint64
		Reordered   bool
		Reorder     ReorderInfo
	}{Magic: "mvindex-v4", DB: snap.DB, Translation: snap.Translation, Manager: snap.Manager, Root: snap.Root,
		HasSource: true, Views: []v4View{{Name: "V", Weights: core.WeightTable{Default: 2.5, ByHead: map[string]float64{"1": 3, "2": 4}}}},
		Reordered: true, Reorder: ReorderInfo{Mode: "once", BlockProvenance: map[string]int{"sifted": 3, "inherited-reused": 2}}}
	if _, err := readIndex(encode(v4)); !errors.As(err, &ve) || ve.Found != "mvindex-v4" {
		t.Fatalf("v4 stream: err = %v, want a SnapshotVersionError naming mvindex-v4", err)
	}
	back, err := readIndex(reencode("mvindex-v5"))
	if err != nil {
		t.Fatalf("v5 round-trip: %v", err)
	}
	if back.Size() != ix.Size() || back.Blocks() != ix.Blocks() {
		t.Errorf("v5 round-trip: size/blocks %d/%d vs %d/%d", back.Size(), back.Blocks(), ix.Size(), ix.Blocks())
	}
}

// TestSnapshotBytesReproducible: saving one index again gives the same
// bytes — for a plain index whose view weight table has per-head
// overrides, and for a sifted index after a structural batch, whose block
// provenance has two kinds — and the overrides and the provenance survive
// the round trip.
func TestSnapshotBytesReproducible(t *testing.T) {
	m := chainMVDB(20, 4)
	tableWeights(t, m)
	for s := int64(1); s <= 20; s += 2 {
		m.Views[0].Weights.Set([]engine.Value{engine.Int(s)}, 1+float64(s)/4)
	}
	_, ix := buildIndex(t, m)
	same := func(what string) []byte {
		t.Helper()
		first := reencoded(t, ix)
		for i := 0; i < 8; i++ {
			if !bytes.Equal(reencoded(t, ix), first) {
				t.Fatalf("%s: save %d differs from the first", what, i+2)
			}
		}
		return first
	}
	back, err := readIndex(bytes.NewReader(same("plain index")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Source().Views[0].Weights.ByHead, m.Views[0].Weights.ByHead; len(got) != 10 || !maps.Equal(got, want) {
		t.Fatalf("restored overrides %v, want %v", got, want)
	}
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderOnce}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(3), engine.Int(903)}, Weight: 1.5},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.reorder.BlockProvenance); n != 2 {
		t.Fatalf("block provenance %v, want two kinds", ix.reorder.BlockProvenance)
	}
	back, err = readIndex(bytes.NewReader(same("sifted index after a structural batch")))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ReorderInfo().BlockProvenance; !maps.Equal(got, ix.reorder.BlockProvenance) {
		t.Fatalf("restored block provenance %v, want %v", got, ix.reorder.BlockProvenance)
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
	for i := range adv.Tuples {
		adv.Tuples[i].Weight *= 2
	}
	ix.Reweight()
	after, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
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
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := readIndex(&buf)
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
// the same, and within 1e-12 of the pointer MVIntersect — the restored
// segments are the maintained ones.
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
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := readIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"Q(s) :- Adv(s,a)", "Q() :- Adv(s,a)", "Q(a) :- Adv(2,a)", "Q(s, a) :- Adv(s,a)"} {
		q := ucq.MustParse(src)
		got, err := back.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d answers restored, %d live", src, len(got), len(want))
		}
		for i := range want {
			if engine.TupleKey(got[i].Head) != engine.TupleKey(want[i].Head) || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
				t.Fatalf("%q answer %d: restored %v %v, live %v %v", src, i, got[i].Head, got[i].Prob, want[i].Head, want[i].Prob)
			}
		}
		checkPointer(t, back, q, got)
	}
	gl, gs := back.LogProbNotW()
	wl, ws := ix.LogProbNotW()
	if math.Float64bits(gl) != math.Float64bits(wl) || gs != ws {
		t.Fatalf("P0(¬W): restored (%v, %d), live (%v, %d)", gl, gs, wl, ws)
	}
}

// readIndex is ReadSeq without the sequence number.
func readIndex(r io.Reader) (*Index, error) {
	ix, _, err := ReadSeq(r)
	return ix, err
}
