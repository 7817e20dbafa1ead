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
	"reflect"
	"strings"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
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
	// A snapshot whose order or block shapes no compile produces: an error
	// naming what is wrong, not a panic or an allocation sized by a corrupt
	// id, so -load-index, snapshot recovery and a follower's bootstrap fail
	// cleanly.
	_, multi := buildIndex(t, multiAdvMVDB(6, 3))
	for _, c := range []struct {
		what, want string
		corrupt    func(s *indexSnapshot)
	}{
		{"an order repeating a variable", "order holds variable", func(s *indexSnapshot) { s.Order[1] = s.Order[0] }},
		{"an order naming a variable past the database's", "order holds variable 1099511627776", func(s *indexSnapshot) { s.Order[0] = 1 << 40 }},
		{"an order missing a variable", "order misses the database's variable", func(s *indexSnapshot) { s.Order = s.Order[1:] }},
		{"an empty block", "block 1 is empty", func(s *indexSnapshot) { s.Blocks[1] = blockSnapshot{Sep: s.Blocks[1].Sep} }},
		{"a ragged block", "block 1 is empty or ragged", func(s *indexSnapshot) { s.Blocks[1].Hi = s.Blocks[1].Hi[1:] }},
		{"a variable outside the order", "block 1 tests variable", func(s *indexSnapshot) { s.Blocks[1].Vars[2] = 1 << 30 }},
		{"a node beside the root", "block 1 has node 1 at or above", func(s *indexSnapshot) { s.Blocks[1].Vars[1] = s.Blocks[1].Vars[0] }},
		{"a child past the block", "block 1 has node 0 with child", func(s *indexSnapshot) { s.Blocks[1].Lo[0] = int32(len(s.Blocks[1].Vars)) }},
		{"a child no exit code names", "block 1 has node 0 with child -3", func(s *indexSnapshot) { s.Blocks[1].Hi[0] = -3 }},
		{"a child above its node", "block 1 has node 1 with child 0", func(s *indexSnapshot) { s.Blocks[1].Lo[1] = 0 }},
		{"blocks out of level order", "block 2 starts at level", func(s *indexSnapshot) { s.Blocks[1], s.Blocks[2] = s.Blocks[2], s.Blocks[1] }},
		{"a separator value below the previous block's", "block 3 has separator value", func(s *indexSnapshot) { s.Blocks[3].Sep = s.Blocks[0].Sep }},
		{"a wrong separator position", "snapshot records separator", func(s *indexSnapshot) { s.SepRelPos[0].N++ }},
		{"a block's separator value that keeps the order but not its tuples", "block 1 holds variable", func(s *indexSnapshot) { s.Blocks[1].Sep = s.Blocks[0].Sep }},
	} {
		var s indexSnapshot
		if err := gob.NewDecoder(bytes.NewReader(reencoded(t, multi))).Decode(&s); err != nil {
			t.Fatal(err)
		}
		if !s.Recorded || len(s.Blocks) < 4 || len(s.Blocks[1].Vars) < 3 || s.Blocks[1].Sep.Equal(s.Blocks[0].Sep) || s.Blocks[3].Sep.Equal(s.Blocks[0].Sep) {
			t.Fatalf("fixture has no record or too few blocks: recorded %v, %d blocks", s.Recorded, len(s.Blocks))
		}
		c.corrupt(&s)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSeq(&b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("index with %s: err = %v, want one containing %q", c.what, err, c.want)
		}
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

// TestRestoredRecordThatDoesNotFit: a snapshot whose recorded separator
// names fewer disjuncts than W has is refused, with an error naming the
// separator, instead of restoring a record the next batch would trust.
func TestRestoredRecordThatDoesNotFit(t *testing.T) {
	_, ix := buildIndex(t, tableMVDB(8, 5))
	var s indexSnapshot
	if err := gob.NewDecoder(bytes.NewReader(reencoded(t, ix))).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.SepPerDisjunct = nil
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(s); err != nil {
		t.Fatal(err)
	}
	if _, err := readIndex(&b); err == nil || !strings.Contains(err.Error(), "snapshot records separator [] ") {
		t.Fatalf("snapshot with a separator of no disjunct: err = %v, want it refused", err)
	}
}

// reencoded returns the index's snapshot stream.
func reencoded(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotVersionRejected: only mvindex-v6 loads. The same stream under
// the retired v3 magic is refused with an error naming both magics, and so
// are streams in v5's layout, which held ¬W as an OBDD manager and its root,
// and in v4's, whose view weight tables and block provenance were gob maps
// too: they decode (the fields v6 does not have are skipped) and are refused
// by their magic, not by a gob type error. Put back under v6 the stream
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
	refused := func(what string, stream *bytes.Buffer, magic string) {
		t.Helper()
		_, err := readIndex(stream)
		var ve *SnapshotVersionError
		if !errors.As(err, &ve) || ve.Found != magic || ve.Supported != "mvindex-v6" {
			t.Fatalf("%s: err = %v, want a SnapshotVersionError naming %s and mvindex-v6", what, err, magic)
		}
		for _, m := range []string{ve.Found, ve.Supported} {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("%s: error %q does not name %s", what, err, m)
			}
		}
	}
	refused("v3 magic", reencode("mvindex-v3"), "mvindex-v3")
	// v5's and v4's layout: ¬W as a manager snapshot and a root instead of
	// the order and the block shapes; v4 had the weight table and the block
	// provenance as maps.
	type manager struct {
		Order []int
		Nodes []struct{ Level, Lo, Hi int32 }
	}
	nodes := manager{Order: snap.Order, Nodes: make([]struct{ Level, Lo, Hi int32 }, 2)}
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
		Manager     manager
		Root        int32
		HasSource   bool
		Views       []v4View
		Opts        core.TranslateOptions
		LastSeq     uint64
		Reordered   bool
		Reorder     ReorderInfo
	}{Magic: "mvindex-v4", DB: snap.DB, Translation: snap.Translation, Manager: nodes, Root: 1,
		HasSource: true, Views: []v4View{{Name: "V", Weights: core.WeightTable{Default: 2.5, ByHead: map[string]float64{"1": 3, "2": 4}}}},
		Reordered: true, Reorder: ReorderInfo{Mode: "once", BlockProvenance: map[string]int{"sifted": 3, "inherited-reused": 2}}}
	refused("v4 stream", encode(v4), "mvindex-v4")
	v5 := struct {
		Magic       string
		DB          engine.DatabaseSnapshot
		Translation core.TranslationSnapshot
		Manager     manager
		Root        int32
		HasSource   bool
		Views       []core.ViewSnapshot
		Opts        core.TranslateOptions
		LastSeq     uint64
		Reordered   bool
		Reorder     ReorderInfo
		Provenance  []keyCount
	}{Magic: "mvindex-v5", DB: snap.DB, Translation: snap.Translation, Manager: nodes, Root: 1,
		HasSource: snap.HasSource, Views: snap.Views, Opts: snap.Opts}
	refused("v5 stream", encode(v5), "mvindex-v5")
	back, err := readIndex(reencode("mvindex-v6"))
	if err != nil {
		t.Fatalf("v6 round-trip: %v", err)
	}
	if back.Size() != ix.Size() || back.Blocks() != ix.Blocks() {
		t.Errorf("v6 round-trip: size/blocks %d/%d vs %d/%d", back.Size(), back.Blocks(), ix.Size(), ix.Blocks())
	}
}

// TestSnapshotBytesReproducible: saving one index again gives the same
// bytes — for a plain index whose view weight table has per-head
// overrides, and for a sifted index after a structural batch, whose block
// provenance has two kinds — and the overrides and the provenance survive
// the round trip. Two independent sifts of one dataset save the same bytes
// too: the sift's wall time is not written.
func TestSnapshotBytesReproducible(t *testing.T) {
	sifted := func() []byte {
		_, ix := buildIndex(t, chainMVDB(20, 4))
		if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
			t.Fatal(err)
		}
		if ix.reorder.SiftMillis == 0 {
			t.Fatal("the sift reports no wall time")
		}
		return reencoded(t, ix)
	}
	if a, b := sifted(), sifted(); !bytes.Equal(a, b) {
		t.Fatalf("two independent sifts saved different streams (%d and %d bytes)", len(a), len(b))
	}
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

// sameChain fails unless got's chain is want's: the order, every segment
// field with the floats bit for bit, the directory, P0(¬W), the count of
// separator values and the block record's separator.
func sameChain(t *testing.T, what string, got, want *Index) {
	t.Helper()
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	g, w := got.ch, want.ch
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"order", g.ord.Order(), w.ord.Order()},
		{"directory", g.off, w.off},
		{"P0(¬W)", g.pNotW, w.pNotW},
		{"separator values", g.vals, w.vals},
		{"record", got.rec != nil, want.rec != nil},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs: %v, want %v", what, f.name, f.got, f.want)
		}
	}
	if got.rec != nil && !reflect.DeepEqual(got.rec.Sep, want.rec.Sep) {
		t.Fatalf("%s: record separator %+v, want %+v", what, got.rec.Sep, want.rec.Sep)
	}
	for k, s := range g.segs {
		r := w.segs[k]
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"separator value", s.sep, r.sep}, {"vars", s.vars, r.vars}, {"lo", s.lo, r.lo}, {"hi", s.hi, r.hi},
			{"byLevel", s.byLevel, r.byLevel}, {"prob", bits(s.prob), bits(r.prob)},
			{"probUnder", bits(s.probUnder), bits(r.probUnder)}, {"reach", bits(s.reach), bits(r.reach)},
			{"b_k", math.Float64bits(s.b), math.Float64bits(r.b)},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: block %d %s differs: %v, want %v", what, k, f.name, f.got, f.want)
			}
		}
	}
}

// roundTrip is ReadSeq(SaveSeq(ix)).
func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	back, err := readIndex(bytes.NewReader(reencoded(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSnapshotRestoresChainExactly: ReadSeq(SaveSeq(ix)) holds ix's chain
// exactly — every segment bit for bit, the directory, P0(¬W) and the block
// record — for chain fixtures and the DBLP index at domain 4000, under the
// static order and a sifted one.
func TestSnapshotRestoresChainExactly(t *testing.T) {
	fixtures := []struct {
		name string
		ix   func() *Index
	}{
		{"chain", func() *Index { _, ix := buildIndex(t, chainMVDB(25, 9)); return ix }},
		{"multi-advisor", func() *Index { _, ix := buildIndex(t, multiAdvMVDB(12, 3)); return ix }},
	}
	if !testing.Short() {
		fixtures = append(fixtures, struct {
			name string
			ix   func() *Index
		}{"DBLP 4000", func() *Index { ix, _ := dblpIndex(t, 4000); return ix }})
	}
	for _, f := range fixtures {
		ix := f.ix()
		if ix.rec == nil || ix.Blocks() < 10 {
			t.Fatalf("%s: want a recorded chain of blocks, have %d blocks (record %v)", f.name, ix.Blocks(), ix.rec != nil)
		}
		sameChain(t, f.name, roundTrip(t, ix), ix)
		if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderOnce}); err != nil {
			t.Fatal(err)
		}
		sameChain(t, f.name+" sifted", roundTrip(t, ix), ix)
	}
}

// TestRestoredIndexMaintainsLikeBuilt: at DBLP domain 4000 a restored index
// and its built twin take the same 12 structural batches the same way —
// incrementally, with as many blocks recompiled — and end with the same
// chain, bit for bit, and the same answers.
func TestRestoredIndexMaintainsLikeBuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DBLP index at domain 4000")
	}
	built, students := dblpIndex(t, 4000)
	restored := roundTrip(t, built)
	for i := 0; i < 12; i++ {
		b, err := built.ApplyMutations(dblpBatch(students, i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := restored.ApplyMutations(dblpBatch(students, i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Full || b.Full || r.Recompiled != b.Recompiled || r.Reused != b.Reused || r.AugmentedBlocks != b.AugmentedBlocks {
			t.Fatalf("batch %d: restored %+v, built %+v; want both incremental with the same work", i, r, b)
		}
	}
	sameChain(t, "after 12 batches", restored, built)
	// Point queries on the students the batches touched and beyond, the
	// inserted advisors' students, and two name scans.
	qs := []*ucq.Query{dblp.QueryStudentsOfAdvisor("Prof. Author 1%"), dblp.QueryStudentsOfAdvisor("Prof. Author 2%")}
	for i, s := range students[:200] {
		qs = append(qs, dblp.QueryAdvisorOfStudent(s), dblp.QueryStudentsOfAdvisorID(int64(1_000_000+i)))
	}
	answers := 0
	for _, q := range qs {
		got, err := restored.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := built.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d answers restored, %d built", q, len(got), len(want))
		}
		for j := range want {
			if engine.TupleKey(got[j].Head) != engine.TupleKey(want[j].Head) || math.Float64bits(got[j].Prob) != math.Float64bits(want[j].Prob) {
				t.Fatalf("%v answer %d: restored %v %v, built %v %v", q, j, got[j].Head, got[j].Prob, want[j].Head, want[j].Prob)
			}
		}
		answers += len(want)
	}
	if answers < 300 {
		t.Fatalf("only %d answers compared", answers)
	}
	t.Logf("%d answers bitwise equal", answers)
}

// FuzzReadSeq: whatever the bytes, ReadSeq returns an error or an index that
// answers a Boolean query; it never panics. The seeds are a plain index, a
// sifted index after a structural batch and a closure-weighted (query-only)
// one.
func FuzzReadSeq(f *testing.F) {
	_, plain := buildIndex(f, tableMVDB(6, 2))
	f.Add(reencoded(f, plain))
	_, sifted := buildIndex(f, tableMVDB(6, 3))
	if _, err := sifted.Sift(obdd.ReorderOptions{Mode: obdd.ReorderOnce}); err != nil {
		f.Fatal(err)
	}
	if _, err := sifted.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(2), engine.Int(902)}, Weight: 1.5},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(reencoded(f, sifted))
	_, closure := buildIndex(f, chainMVDB(6, 4))
	f.Add(reencoded(f, closure))
	q := ucq.MustParse("Q() :- Adv(s,a)")
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, _, err := ReadSeq(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := ix.ProbBoolean(q.UCQ, IntersectOptions{}); err != nil {
			t.Logf("restored index refused the query: %v", err)
		}
	})
}
