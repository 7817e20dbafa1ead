package mvindex

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// indexSnapshot is the serialized MV-index: the translated database, the
// translation metadata, and ¬W the way the index holds it — the variable
// order, level by level, and the block shapes in chain order (a block's
// level-sorted list is not written: the order gives it back). The
// weight-dependent half of the segments is recomputed on load — one weigh
// per block; it depends on the tuple weights, which keeps saved indexes
// valid under Reweight-style workflows.
//
// The database is written once: the translated database holds the source
// MVDB's base relations themselves plus the NV relations, and a restore
// makes the source a handle on the same store (every relation but the NV
// ones). The rest of the live-update state travels with it: the source's
// WeightTable-backed view definitions and the translate options, so a
// restored index supports ApplyMutations; LastSeq, the WAL sequence number
// the snapshot covers, so recovery replays only the log tail; and the block
// record of the incremental compiler (Recorded, with the separator and each
// block's separator value), so a restored index's first structural batch
// recompiles only its dirty blocks, like a built index's.
//
// The reordering provenance of a sifted index travels with it too; the
// learned order itself is Order. The Reorder fields let recovery and replica
// bootstrap know the order is learned — delta recompiles keep inheriting it.
// The sift's wall time (SiftMillis) is not written, so two sifts of one
// index save the same bytes; a restored index reports 0.
// Gob writes a map in random order, so the view weight tables, the
// separator's relation positions and the block provenance (Provenance;
// Reorder.BlockProvenance stays empty) are slices sorted by key: two saves
// of one index are byte-identical.
type indexSnapshot struct {
	Magic       string
	DB          engine.DatabaseSnapshot
	Translation core.TranslationSnapshot
	Order       []int
	Blocks      []blockSnapshot
	NotWFalse   bool // ¬W is unsatisfiable (no block)

	Recorded       bool
	SepPerDisjunct []string
	SepRelPos      []keyCount

	// HasSource is false when the source's weights are Go closures.
	HasSource bool
	Views     []core.ViewSnapshot
	Opts      core.TranslateOptions
	LastSeq   uint64

	Reordered  bool
	Reorder    ReorderInfo
	Provenance []keyCount
}

// blockSnapshot is one chain block's shape in a snapshot.
type blockSnapshot struct {
	Sep          engine.Value
	Vars, Lo, Hi []int32
}

// keyCount is one entry of a map[string]int in a snapshot: of the
// separator's RelPos or of ReorderInfo.BlockProvenance.
type keyCount struct {
	Key string
	N   int
}

// sortedCounts returns m's entries sorted by key.
func sortedCounts(m map[string]int) []keyCount {
	out := make([]keyCount, 0, len(m))
	for k, n := range m {
		out = append(out, keyCount{k, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// countMap is the inverse of sortedCounts.
func countMap(kc []keyCount) map[string]int {
	m := make(map[string]int, len(kc))
	for _, c := range kc {
		m[c.Key] = c.N
	}
	return m
}

// snapshotMagic names the one snapshot format written and read. Gob skips
// the fields of an older layout that this one does not have, so an older
// stream decodes and is refused by its magic, not by a gob type error.
const snapshotMagic = "mvindex-v6"

// SnapshotVersionError reports a snapshot whose magic is not the supported
// one — a stream written by another version of the format, or not an index
// snapshot at all.
type SnapshotVersionError struct {
	Found, Supported string
}

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("mvindex: snapshot magic %q is not supported (this build reads only %q)", e.Found, e.Supported)
}

// SaveSeq serializes the index together with the WAL sequence number the
// snapshot covers. When the index carries a snapshotable source MVDB
// (WeightTable-backed views), it is included so the restored index supports
// mutations; closure-weighted sources degrade to a query-only snapshot.
func (ix *Index) SaveSeq(w io.Writer, lastSeq uint64) error {
	bw := bufio.NewWriter(w)
	c := ix.ch
	s := indexSnapshot{
		Magic:       snapshotMagic,
		DB:          ix.tr.DB.Snapshot(),
		Translation: ix.tr.Snapshot(),
		Order:       c.ord.Order(),
		Blocks:      make([]blockSnapshot, len(c.segs)),
		NotWFalse:   c.pNotW.zeros > 0 && len(c.segs) == 0,
		Opts:        ix.tr.Opts(),
		LastSeq:     lastSeq,
	}
	for k, sg := range c.segs {
		s.Blocks[k] = blockSnapshot{Sep: sg.sep, Vars: sg.vars, Lo: sg.lo, Hi: sg.hi}
	}
	if ix.rec != nil {
		s.Recorded, s.SepPerDisjunct, s.SepRelPos = true, ix.rec.Sep.PerDisjunct, sortedCounts(ix.rec.Sep.RelPos)
	}
	if src := ix.tr.Source; src != nil {
		if vs, err := src.ViewSnapshots(); err == nil {
			s.HasSource, s.Views = true, vs
		}
	}
	if ix.reorder != nil {
		s.Reordered, s.Reorder = true, *ix.reorder
		s.Reorder.SiftMillis, s.Reorder.BlockProvenance = 0, nil
		s.Provenance = sortedCounts(ix.reorder.BlockProvenance)
	}
	if err := gob.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("mvindex: encoding index: %w", err)
	}
	return bw.Flush()
}

// ReadSeq deserializes an index written by SaveSeq and returns the WAL
// sequence number the snapshot covers. The returned index is fully
// functional: the inner translation is restored and the saved block shapes
// are weighed, so no recompilation happens; with a snapshotted source the
// index also accepts ApplyMutations, as incrementally as a built one.
func ReadSeq(r io.Reader) (*Index, uint64, error) {
	var s indexSnapshot
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&s); err != nil {
		return nil, 0, fmt.Errorf("mvindex: decoding index: %w", err)
	}
	if s.Magic != snapshotMagic {
		return nil, 0, &SnapshotVersionError{Found: s.Magic, Supported: snapshotMagic}
	}
	db, err := engine.FromSnapshot(s.DB)
	if err != nil {
		return nil, 0, err
	}
	tr, err := core.RestoreTranslation(db, s.Translation)
	if err != nil {
		return nil, 0, err
	}
	if s.HasSource {
		if err := tr.RestoreSource(s.Views, s.Opts); err != nil {
			return nil, 0, fmt.Errorf("mvindex: restoring source MVDB: %w", err)
		}
	}
	ix := &Index{tr: tr, probs: tr.DB.Probs()}
	if ix.ch, err = restoreChain(&s, db, ix.probs); err != nil {
		return nil, 0, err
	}
	if s.Recorded {
		// U is the restored W itself, so the next compile knows the record
		// as its own.
		sep := ucq.Separator{PerDisjunct: s.SepPerDisjunct, RelPos: countMap(s.SepRelPos)}
		ix.rec = &obdd.BlockRecord{U: tr.W, HasSep: true, Sep: sep}
	}
	if s.Reordered {
		// The learned order was restored with the chain; mark the index so
		// delta recompiles keep inheriting it.
		ri := s.Reorder
		ri.Provenance = "snapshot"
		ri.BlockProvenance = countMap(s.Provenance)
		ix.reorder = &ri
	}
	return ix, s.LastSeq, nil
}

// restoreChain rebuilds the chain a snapshot holds by weighing its block
// shapes. It refuses, naming the block, any shape no compile produces: a
// traversal, a splice or the level search would misread it or panic. The
// order must be a permutation of db's variables, checked before anything
// sized by it is allocated.
func restoreChain(s *indexSnapshot, db *engine.Database, probs []float64) (*chain, error) {
	seen := make([]bool, db.NumVars()+1)
	for _, v := range s.Order {
		if !db.Alive(v) || seen[v] {
			return nil, fmt.Errorf("mvindex: snapshot order holds variable %d, repeated or not in the database", v)
		}
		seen[v] = true
	}
	for v := 1; v < len(seen); v++ {
		if db.Alive(v) != seen[v] {
			return nil, fmt.Errorf("mvindex: snapshot order misses the database's variable %d", v)
		}
	}
	c := &chain{ord: obdd.NewManager(s.Order), off: make([]int32, 1, len(s.Blocks)+1)}
	if s.NotWFalse && len(s.Blocks) == 0 {
		c.pNotW.zeros = 1 // ¬W is unsatisfiable: P0(¬W) = 0
	}
	var levels []int32
	last := int32(-1) // the previous block's deepest level
	for k, b := range s.Blocks {
		n := int32(len(b.Vars))
		if n == 0 || len(b.Lo) != int(n) || len(b.Hi) != int(n) {
			return nil, fmt.Errorf("mvindex: snapshot block %d is empty or ragged (%d vars, %d lo, %d hi)", k, n, len(b.Lo), len(b.Hi))
		}
		levels = levels[:0]
		for i, v := range b.Vars {
			l := c.level(v)
			if l < 0 {
				return nil, fmt.Errorf("mvindex: snapshot block %d tests variable %d, which is not in the order", k, v)
			}
			if levels = append(levels, l); i > 0 && l <= levels[0] {
				return nil, fmt.Errorf("mvindex: snapshot block %d has node %d at or above its root's level", k, i)
			}
		}
		for i, l := range levels {
			for _, ch := range [2]int32{b.Lo[i], b.Hi[i]} {
				if ch != ccFalse && ch != ccExit && (ch < 0 || ch >= n || levels[ch] <= l) {
					return nil, fmt.Errorf("mvindex: snapshot block %d has node %d with child %d, not a deeper node of the block or an exit", k, i, ch)
				}
			}
		}
		if levels[0] <= last {
			return nil, fmt.Errorf("mvindex: snapshot block %d starts at level %d, inside the previous block (down to level %d)", k, levels[0], last)
		}
		if s.Recorded && k > 0 && b.Sep.Compare(s.Blocks[k-1].Sep) < 0 {
			return nil, fmt.Errorf("mvindex: snapshot block %d has separator value %v, below the previous block's", k, b.Sep)
		}
		if s.Recorded && (k == 0 || !b.Sep.Equal(s.Blocks[k-1].Sep)) {
			c.vals++
		}
		sh := shape{sep: b.Sep, vars: b.Vars, lo: b.Lo, hi: b.Hi, byLevel: make([]int32, n)}
		levelSort(sh.byLevel, levels)
		last = levels[sh.byLevel[n-1]]
		seg := weigh(sh, probs, nil)
		c.segs = append(c.segs, &seg)
		c.off = append(c.off, c.off[k]+n)
		c.pNotW.add(seg.b, 1)
	}
	return c, nil
}

// SaveFile writes the index to a file.
func (ix *Index) SaveFile(path string) error { return ix.SaveFileSeq(path, 0) }

// syncDir fsyncs a directory, making a rename into it durable. A variable so
// tests can observe the call.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveFileSeq writes the index and the covered WAL sequence number to a file,
// atomically and durably: the snapshot lands under a temporary name, is
// fsynced, is renamed into place, and the directory is fsynced. A crash
// mid-write never corrupts the previous snapshot, and once SaveFileSeq
// returns, no crash brings the previous one back — so a caller may then drop
// the WAL segments the new snapshot covers.
func (ix *Index) SaveFileSeq(path string, lastSeq uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := ix.SaveSeq(f, lastSeq); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// LoadFile reads an index from a file.
func LoadFile(path string) (*Index, error) {
	ix, _, err := LoadFileSeq(path)
	return ix, err
}

// LoadFileSeq reads an index and its covered WAL sequence number from a file.
func LoadFileSeq(path string) (*Index, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadSeq(f)
}
