// Package wal implements the append-only, CRC-framed, group-committed
// write-ahead log behind the live-update write path. The log is payload-
// agnostic (opaque byte records tagged with a monotone sequence number), so
// it has no dependency on the engine or core packages; the server encodes
// mutation batches into it.
//
// # Format
//
// A log is a directory of segment files wal-<generation>.log. Each segment
// is a sequence of frames:
//
//	[length u32][crc32 u32][payload]   payload = [seq u64][record bytes]
//
// all little-endian; the CRC (IEEE) covers the payload. Frames never span
// segments. A crash can tear the final frame of the final segment; Open
// truncates such a tail (the frame was never acknowledged — acknowledgment
// happens only after Sync returns). A CRC or framing error anywhere else is
// real corruption and surfaces as an error.
//
// # Durability contract
//
// Append buffers a frame and assigns its sequence number; the frame is
// durable only once a subsequent Sync returns nil. Sync is a demand-driven
// group commit: a caller that finds no commit in flight leads one — it takes
// the frame buffer under the lock, then writes and fsyncs it with the lock
// released. Frames appended meanwhile collect in the twin buffer, their Sync
// callers park, and the first to wake leads the next commit, which covers
// all of them with one fsync: a batch is as large as the last fsync was long,
// and a lone writer never waits for a timer (see Options.GroupCommit for the
// one deliberate wait). Callers that find their frame already synced return
// immediately. StartSync runs Sync on a goroutine of its own, so a writer can
// overlap the fsync with other work (the server: the index apply) and still
// acknowledge strictly after it.
//
// # Failure
//
// After a write or fsync error the log cannot know what the segment holds:
// the write may have been partial, and a retried fsync can report success for
// data the kernel already dropped. The first such error therefore fails the
// log for good: that call and every later Append, Sync and Rotate return it
// wrapped in ErrFailed, and nothing more is written. Reopening cuts the torn
// tail. Errors returned by Hooks precede any byte moving and are transient.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopReplay, returned by a Replay callback, ends the replay cleanly:
// Replay stops iterating and returns nil. Used by streaming readers that
// must not run past the durable (synced) prefix of a live log.
var ErrStopReplay = errors.New("wal: stop replay")

// ErrFailed wraps the first write or fsync error of a log, which every later
// Append, Sync and Rotate returns; see the package comment.
var ErrFailed = errors.New("wal: log failed")

var errClosed = errors.New("wal: log is closed")

// CorruptError reports WAL corruption with its position: the segment file and
// the byte offset of the frame that failed to parse or checksum. Replay and
// Open return it (wrapped) for any corruption outside the tolerated torn
// final frame; errors.As extracts it.
type CorruptError struct {
	Segment string // segment file name, e.g. wal-00000003.log
	Offset  int64  // byte offset of the corrupt frame within the segment
	Reason  string // what failed: header tear, bad length, payload tear, crc
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%s at %s offset %d", e.Reason, e.Segment, e.Offset)
}

const (
	frameHeader = 8 // length u32 + crc u32
	seqBytes    = 8 // payload prefix
)

// MaxRecordBytes caps one record; larger appends are rejected (a corrupt
// length field would otherwise make replay allocate unboundedly).
const MaxRecordBytes = 64 << 20

// Hooks inject faults for crash testing: each is called (when non-nil)
// immediately before the corresponding irreversible step. Returning an error
// aborts the operation with that error and changes nothing, so the operation
// can be retried; tests typically panic or exit instead, simulating a crash at
// the tear point.
type Hooks struct {
	BeforeWrite func(seq uint64) error // before a frame enters the log's buffer
	// BeforeSync runs before the write and fsync of a group commit, with the
	// log unlocked: Append proceeds while it blocks, and what is appended
	// meanwhile joins the commit.
	BeforeSync func() error
}

// Options configures Open.
type Options struct {
	// GroupCommit is the ceiling on the one deliberate wait of a commit. A
	// leader that has seen fewer Sync callers arrive than the previous commit
	// released knows of writers about to come back, and waits until they have
	// or this long has passed, so that they share its fsync instead of
	// alternating with it. A lone writer never waits: the previous commit
	// released only itself. Zero never waits; writers that arrive while an
	// fsync is in flight still share the next one.
	GroupCommit time.Duration
	// Hooks inject crash faults; see Hooks.
	Hooks Hooks
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Segments   int    // segment files on disk
	Generation uint64 // current (append) segment generation
	Frames     uint64 // frames in the log, including unsynced ones
	Bytes      int64  // bytes in the log, including unsynced ones
	NextSeq    uint64 // sequence number the next Append will get
	SyncedSeq  uint64 // highest durable sequence number

	Fsyncs      uint64 // group commits (one write and one fsync each)
	FsyncFrames uint64 // frames those commits covered; per commit, the group size
	FsyncNs     int64  // cumulative time in their write + fsync
	AckWaitNs   int64  // cumulative time StartSync waiters spent waiting
}

// segmentFile is what the log needs of its open segment (an *os.File); tests
// substitute one that fails.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond
	f          segmentFile
	buf, spare []byte // frames appended since a commit last took the buffer; its idle twin
	bufFrames  uint64 // frames in buf
	gen        uint64
	nextSeq    uint64 // last assigned sequence number
	synced     uint64 // last durable sequence number
	frames     uint64
	bytes      int64
	segments   int
	committing bool   // a commit is in flight; it holds mu only at its start and end
	covered    uint64 // highest sequence number a commit has taken from buf
	group      int    // Sync callers the last commit releases
	arrived    int    // Sync callers that arrived since it took the buffer
	barging    int    // Rotate or Close calls waiting for the commit in flight
	failed     error  // first write or fsync error, wrapped in ErrFailed; final
	closed     bool
	watch      chan struct{} // closed when synced advances (or the log closes)

	fsyncs, fsyncFrames uint64
	fsyncNs             time.Duration
	ackWaitNs           atomic.Int64
}

// fsyncDir fsyncs a directory so entry creations, renames and removals under
// it survive power loss. File-content fsyncs alone do not make a new segment
// file's directory entry durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}

func segName(gen uint64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// parseSegName returns the generation of a segment file name.
func parseSegName(name string) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(name, "wal-%d.log", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// listSegments returns the segment generations in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if g, ok := parseSegName(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Open opens (or creates) the log in dir. The final segment's torn tail, if
// any, is truncated; the tail of every earlier segment must be intact.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gens, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, gen: 1}
	l.cond = sync.NewCond(&l.mu)
	if len(gens) > 0 {
		l.gen = gens[len(gens)-1]
		l.segments = len(gens) - 1
		// Earlier segments: count frames, track the last sequence number.
		for _, g := range gens[:len(gens)-1] {
			n, sz, last, err := scanSegment(filepath.Join(dir, segName(g)), false)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.frames += n
			l.bytes += sz
			if n > 0 {
				l.nextSeq = last
			}
		}
		// Final segment: tolerate and truncate a torn tail.
		path := filepath.Join(dir, segName(l.gen))
		n, sz, last, err := scanSegment(path, true)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := os.Truncate(path, sz); err != nil {
			return nil, err
		}
		l.frames += n
		l.bytes += sz
		if n > 0 {
			l.nextSeq = last
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(l.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// The segment file's directory entry must be durable before any frame in
	// it is acknowledged; fsync the directory now rather than on every Sync.
	if err := fsyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.segments++
	l.synced = l.nextSeq
	return l, nil
}

// scanSegment validates a segment and returns its frame count, the byte
// offset of the end of its last valid frame, and the last frame's sequence
// number. With tolerateTear, a torn final frame stops the scan cleanly;
// otherwise it is an error.
func scanSegment(path string, tolerateTear bool) (frames uint64, validBytes int64, lastSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, 0, nil
		}
		return 0, 0, 0, err
	}
	defer f.Close()
	corrupt := func(reason string) error {
		return &CorruptError{Segment: filepath.Base(path), Offset: validBytes, Reason: reason}
	}
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return frames, validBytes, lastSeq, nil
			}
			if err == io.ErrUnexpectedEOF && tolerateTear {
				return frames, validBytes, lastSeq, nil
			}
			return 0, 0, 0, corrupt("torn frame header")
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n < seqBytes || n > MaxRecordBytes+seqBytes {
			if tolerateTear {
				return frames, validBytes, lastSeq, nil
			}
			return 0, 0, 0, corrupt(fmt.Sprintf("bad frame length %d", n))
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTear {
				return frames, validBytes, lastSeq, nil
			}
			return 0, 0, 0, corrupt("torn frame payload")
		}
		if crc32.ChecksumIEEE(payload) != crc {
			if tolerateTear {
				return frames, validBytes, lastSeq, nil
			}
			return 0, 0, 0, corrupt("crc mismatch")
		}
		frames++
		validBytes += int64(frameHeader) + int64(n)
		lastSeq = binary.LittleEndian.Uint64(payload[:seqBytes])
	}
}

// Append adds one record to the log and returns its sequence number. The
// record is durable only after a subsequent Sync returns nil.
func (l *Log) Append(record []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(l.nextSeq+1, record)
}

// AppendSeq adds one record under an explicit sequence number — the follower
// side of replication, which persists the primary's frames under the
// primary's numbering. Sequence numbers must be strictly increasing; gaps are
// legal (a follower bootstrapped from a snapshot starts its empty local log
// at the snapshot's covered sequence number, and Replay filters by sequence
// number, never by density).
func (l *Log) AppendSeq(seq uint64, record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.nextSeq {
		return fmt.Errorf("wal: non-monotone sequence %d (last %d)", seq, l.nextSeq)
	}
	_, err := l.appendLocked(seq, record)
	return err
}

// SkipTo advances the next assigned sequence number to at least seq without
// writing anything. Recovery paths use it to re-anchor an empty or truncated
// log at the snapshot's covered position: a snapshot at seq N with no frames
// after it reopens with nextSeq 0, and without the skip the next Append would
// re-issue sequence numbers the snapshot already covers — frames a later
// replay (which filters by sequence) would silently drop.
func (l *Log) SkipTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.nextSeq {
		return
	}
	if l.synced == l.nextSeq {
		// Everything assigned so far is durable, and the skipped range
		// (nextSeq, seq] holds no data — the durable horizon moves with it,
		// waking any WaitSynced long-poller parked below seq.
		l.synced = seq
		if l.watch != nil {
			close(l.watch)
			l.watch = nil
		}
	}
	l.nextSeq = seq
}

func (l *Log) appendLocked(seq uint64, record []byte) (uint64, error) {
	if len(record) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(record), MaxRecordBytes)
	}
	if l.closed {
		return 0, errClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if h := l.opts.Hooks.BeforeWrite; h != nil {
		if err := h(seq); err != nil {
			return 0, err
		}
	}
	n := seqBytes + len(record)
	var hdr [frameHeader + seqBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[frameHeader:], seq)
	crc := crc32.ChecksumIEEE(hdr[frameHeader:])
	crc = crc32.Update(crc, crc32.IEEETable, record)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, record...)
	l.bufFrames++
	l.nextSeq = seq
	l.frames++
	l.bytes += int64(frameHeader) + int64(n)
	return seq, nil
}

// Sync makes every record appended so far durable (group commit; see the
// package comment). It returns nil only once the caller's frames are synced,
// by this call or a concurrent one.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.nextSeq
	for counted := false; ; l.cond.Wait() {
		switch {
		case l.closed:
			return errClosed
		case l.failed != nil:
			return l.failed
		case l.synced >= target:
			return nil
		}
		if !counted {
			// Counted once per call, into the commit that will release it: the
			// one in flight if that took this caller's frames, else the next.
			counted = true
			if l.committing && target <= l.covered {
				l.group++
			} else {
				l.arrived++
				l.cond.Broadcast() // a leader may be waiting for exactly this
			}
		}
		if !l.committing && l.barging == 0 {
			return l.commitLocked(true)
		}
	}
}

// StartSync starts Sync on a goroutine of its own and returns the function
// that waits for its result, so the caller can do other work while the fsync
// runs and still acknowledge only after it. The goroutine ends when Sync
// returns, waited for or not; the time spent in wait is Stats.AckWaitNs.
func (l *Log) StartSync() (wait func() error) {
	done := make(chan error, 1)
	go func() { done <- l.Sync() }()
	return func() error {
		t0 := time.Now()
		err := <-done
		l.ackWaitNs.Add(int64(time.Since(t0)))
		return err
	}
}

// commitLocked makes every frame appended so far durable with one write and
// one fsync. Called with mu held and no commit in flight, it returns with mu
// held, but releases it while it waits, writes and fsyncs: Append keeps
// running, and what it appends after the buffer is taken rides the next
// commit. gather permits the deliberate wait of Options.GroupCommit.
func (l *Log) commitLocked(gather bool) error {
	if l.failed != nil || len(l.buf) == 0 {
		return l.failed // nil: nothing appended since the last commit
	}
	l.committing = true
	defer func() {
		l.committing = false
		l.cond.Broadcast()
	}()
	if w := l.opts.GroupCommit; gather && w > 0 && l.arrived < l.group {
		expired := false
		t := time.AfterFunc(w, func() {
			l.mu.Lock()
			expired = true
			l.mu.Unlock()
			l.cond.Broadcast()
		})
		for l.arrived < l.group && !expired {
			l.cond.Wait()
		}
		t.Stop()
	}
	if h := l.opts.Hooks.BeforeSync; h != nil {
		l.mu.Unlock()
		err := h()
		l.mu.Lock()
		if err != nil {
			return err
		}
	}
	out, frames, target, f := l.buf, l.bufFrames, l.nextSeq, l.f
	l.buf, l.bufFrames, l.covered = l.spare[:0], 0, target
	l.group, l.arrived = l.arrived, 0
	l.mu.Unlock()
	t0 := time.Now()
	_, err := f.Write(out)
	if err != nil {
		err = fmt.Errorf("writing frames: %w", err)
	} else if err = f.Sync(); err != nil {
		err = fmt.Errorf("fsync: %w", err)
	}
	took := time.Since(t0)
	l.mu.Lock()
	l.spare = out
	if err != nil {
		l.failed = fmt.Errorf("%w: %w", ErrFailed, err)
		return l.failed
	}
	l.synced = target
	l.fsyncs++
	l.fsyncFrames += frames
	l.fsyncNs += took
	if l.watch != nil {
		close(l.watch) // wake WaitSynced long-pollers
		l.watch = nil
	}
	return nil
}

// SyncedSeq returns the highest durable sequence number. Replication ships
// only frames at or below it: an unsynced frame is unacknowledged and may
// legitimately vanish in a crash, so it must never reach a follower.
func (l *Log) SyncedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// WaitSynced blocks until the durable sequence number exceeds after, the
// context is done, or the log closes. It returns the durable sequence number
// at wake-up; the long-poll tail of the replication stream is built on it.
func (l *Log) WaitSynced(ctx context.Context, after uint64) (uint64, error) {
	for {
		l.mu.Lock()
		if l.synced > after {
			s := l.synced
			l.mu.Unlock()
			return s, nil
		}
		if l.closed {
			l.mu.Unlock()
			return 0, errClosed
		}
		if l.watch == nil {
			l.watch = make(chan struct{})
		}
		ch := l.watch
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-ch:
		}
	}
}

// awaitCommit waits, with mu held, until no commit is in flight. While it
// waits no Sync caller may lead another one, or writers that keep the log
// committing back to back would starve Rotate and Close.
func (l *Log) awaitCommit() {
	l.barging++
	for l.committing {
		l.cond.Wait()
	}
	l.barging--
}

// Rotate durably closes the current segment and starts a new one with the
// next generation. Used by the snapshotter: after a snapshot covering the
// rotated segments is persisted, RemoveBelow garbage-collects them. It waits
// out a commit in flight, so no frame is ever written to a closed segment.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitCommit()
	if l.closed {
		return 0, errClosed
	}
	if err := l.commitLocked(false); err != nil {
		return 0, err
	}
	// What was appended during that fsync is still in buf (mu has been held
	// since the commit ended) and goes to the new segment.
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	l.gen++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if err := fsyncDir(l.dir); err != nil {
		f.Close()
		return 0, err
	}
	l.f = f
	l.segments++
	return l.gen, nil
}

// RemoveBelow deletes every segment with generation < gen, reclaiming log
// space covered by a snapshot. The current segment is never removed.
func (l *Log) RemoveBelow(gen uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen > l.gen {
		gen = l.gen
	}
	gens, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, g := range gens {
		if g >= gen {
			continue
		}
		path := filepath.Join(l.dir, segName(g))
		n, sz, _, serr := scanSegment(path, true)
		if err := os.Remove(path); err != nil {
			return err
		}
		removed = true
		l.segments--
		if serr == nil {
			l.frames -= n
			l.bytes -= sz
		}
	}
	if removed {
		// Make the removals durable: a resurrected pre-snapshot segment after
		// a crash would replay frames the snapshot already covers.
		return fsyncDir(l.dir)
	}
	return nil
}

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq + 1
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:   l.segments,
		Generation: l.gen,
		Frames:     l.frames,
		Bytes:      l.bytes,
		NextSeq:    l.nextSeq + 1,
		SyncedSeq:  l.synced,

		Fsyncs:      l.fsyncs,
		FsyncFrames: l.fsyncFrames,
		FsyncNs:     int64(l.fsyncNs),
		AckWaitNs:   l.ackWaitNs.Load(),
	}
}

// Close flushes, fsyncs and closes the log, after any commit in flight.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitCommit()
	if l.closed {
		return nil
	}
	err := l.commitLocked(false)
	l.closed = true
	l.cond.Broadcast()
	if l.watch != nil {
		close(l.watch) // wake WaitSynced long-pollers so they observe closed
		l.watch = nil
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay iterates the records of the log in dir with sequence numbers
// strictly greater than afterSeq, in order, without opening the log for
// writing. A torn final frame in the final segment ends the replay cleanly
// (that frame was never acknowledged); tears or CRC failures anywhere else
// are corruption and return a positioned error (see CorruptError) — replay
// never skips past a corrupt frame. A callback returning ErrStopReplay ends
// the replay cleanly.
func Replay(dir string, afterSeq uint64, fn func(seq uint64, record []byte) error) error {
	gens, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for gi, g := range gens {
		final := gi == len(gens)-1
		path := filepath.Join(dir, segName(g))
		if err := replaySegment(path, final, afterSeq, fn); err != nil {
			if errors.Is(err, ErrStopReplay) {
				return nil
			}
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

func replaySegment(path string, tolerateTear bool, afterSeq uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	corrupt := func(reason string, off int64) error {
		return &CorruptError{Segment: filepath.Base(path), Offset: off, Reason: reason}
	}
	var hdr [frameHeader]byte
	var payload []byte
	var off int64
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || (err == io.ErrUnexpectedEOF && tolerateTear) {
				return nil
			}
			return corrupt("torn frame header", off)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n < seqBytes || n > MaxRecordBytes+seqBytes {
			if tolerateTear {
				return nil
			}
			return corrupt(fmt.Sprintf("bad frame length %d", n), off)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTear {
				return nil
			}
			return corrupt("torn frame payload", off)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			if tolerateTear {
				return nil
			}
			return corrupt("crc mismatch", off)
		}
		off += int64(frameHeader) + int64(n)
		seq := binary.LittleEndian.Uint64(payload[:seqBytes])
		if seq > afterSeq {
			if err := fn(seq, payload[seqBytes:]); err != nil {
				return err
			}
		}
	}
}
