package mvindex

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// indexSnapshot is the serialized MV-index: the translated database, the
// translation metadata, an OBDD manager, and the ¬W root. The index holds ¬W
// as per-block segments; Save writes the pointer ¬W rebuilt from them — a
// manager of exactly ¬W's nodes, which the version keeps for the next Save —
// and the segments are recomputed on load — one pass of the per-block
// primitive over every block; they depend on the tuple weights, which keeps
// saved indexes valid under Reweight-style workflows.
//
// The database is written once: the translated database holds the source
// MVDB's base relations themselves plus the NV relations, and a restore
// makes the source a handle on the same store (every relation but the NV
// ones). The rest of the live-update state travels with it: the source's
// WeightTable-backed view definitions and the translate options, so a
// restored index supports ApplyMutations, and LastSeq, the WAL sequence
// number the snapshot covers, so recovery replays only the log tail. The
// block record of the incremental compiler is NOT serialized — the first
// structural batch after a restore recompiles in full and re-records.
//
// The reordering provenance of a sifted index travels with it too. The
// learned variable order itself is inside the manager snapshot
// (obdd.Snapshot stores the order); the Reorder fields let recovery and
// replica bootstrap know the order is learned — they skip the sifting search
// and delta recompiles keep inheriting the order.
type indexSnapshot struct {
	Magic       string
	DB          engine.DatabaseSnapshot
	Translation core.TranslationSnapshot
	Manager     obdd.Snapshot
	Root        int32

	// HasSource is false when the source's weights are Go closures.
	HasSource bool
	Views     []core.ViewSnapshot
	Opts      core.TranslateOptions
	LastSeq   uint64

	Reordered bool
	Reorder   ReorderInfo
}

// snapshotMagic names the one snapshot format written and read.
const snapshotMagic = "mvindex-v4"

// SnapshotVersionError reports a snapshot whose magic is not the supported
// one — a stream written by another version of the format, or not an index
// snapshot at all.
type SnapshotVersionError struct {
	Found, Supported string
}

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("mvindex: snapshot magic %q is not supported (this build reads only %q)", e.Found, e.Supported)
}

// Save serializes the index (including the translated database) as one gob
// message, equivalent to SaveSeq with sequence number 0.
func (ix *Index) Save(w io.Writer) error { return ix.SaveSeq(w, 0) }

// SaveSeq serializes the index together with the WAL sequence number the
// snapshot covers. When the index carries a snapshotable source MVDB
// (WeightTable-backed views), it is included so the restored index supports
// mutations; closure-weighted sources degrade to a query-only snapshot.
func (ix *Index) SaveSeq(w io.Writer, lastSeq uint64) error {
	bw := bufio.NewWriter(w)
	n := ix.ch.negOBDD()
	s := indexSnapshot{
		Magic:       snapshotMagic,
		DB:          ix.tr.DB.Snapshot(),
		Translation: ix.tr.Snapshot(),
		Manager:     n.m.Snapshot(),
		Root:        int32(n.root),
		Opts:        ix.tr.Opts(),
		LastSeq:     lastSeq,
	}
	if src := ix.tr.Source; src != nil {
		if vs, err := src.ViewSnapshots(); err == nil {
			s.HasSource, s.Views = true, vs
		}
	}
	if ix.reorder != nil {
		s.Reordered = true
		s.Reorder = *ix.ReorderInfo()
	}
	if err := gob.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("mvindex: encoding index: %w", err)
	}
	return bw.Flush()
}

// Read deserializes an index written by Save, discarding the sequence number.
func Read(r io.Reader) (*Index, error) {
	ix, _, err := ReadSeq(r)
	return ix, err
}

// ReadSeq deserializes an index written by Save/SaveSeq and returns the WAL
// sequence number the snapshot covers. The returned index is fully
// functional: the inner translation is restored and the segments are
// flattened from the saved ¬W, so no recompilation happens; with a
// snapshotted source the index also accepts ApplyMutations.
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
	m, err := obdd.Restore(s.Manager)
	if err != nil {
		return nil, 0, err
	}
	root := obdd.NodeID(s.Root)
	if root < 0 || int(root) >= m.NumNodes() {
		return nil, 0, fmt.Errorf("mvindex: snapshot root %d out of range", root)
	}
	ix := &Index{tr: tr, probs: tr.DB.Probs()}
	ix.ch, _ = newChain(m, root, nil, ix.probs)
	if s.Reordered {
		// The learned order was restored with the manager; mark the index so
		// no sifting search re-runs and delta recompiles keep inheriting it.
		ri := s.Reorder
		ri.Provenance = "snapshot"
		if ri.BlockProvenance == nil {
			ri.BlockProvenance = map[string]int{}
		}
		ix.reorder = &ri
	}
	return ix, s.LastSeq, nil
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
