package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func collect(t *testing.T, dir string, after uint64) (seqs []uint64, recs [][]byte) {
	t.Helper()
	err := Replay(dir, after, func(seq uint64, rec []byte) error {
		seqs = append(seqs, seq)
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, recs
}

func TestAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 25; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d want %d", seq, i+1)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncedSeq != 25 || st.Frames != 25 {
		t.Fatalf("stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, recs := collect(t, dir, 0)
	if len(seqs) != 25 {
		t.Fatalf("replayed %d frames", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("frame %d: seq %d rec %q", i, seqs[i], recs[i])
		}
	}
	// afterSeq skips the prefix.
	seqs, _ = collect(t, dir, 20)
	if len(seqs) != 5 || seqs[0] != 21 {
		t.Fatalf("after=20: %v", seqs)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 7; i++ {
		l.Append([]byte("x"))
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("resumed seq %d want 8", seq)
	}
	l2.Close()
	seqs, _ := collect(t, dir, 0)
	if len(seqs) != 8 || seqs[7] != 8 {
		t.Fatalf("replay after reopen: %v", seqs)
	}
}

// TestTornTail: a partially written final frame is discarded on Open and on
// Replay; acknowledged frames survive byte-for-byte.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("keep-%d", i)))
	}
	l.Sync()
	l.Append([]byte("doomed-never-synced"))
	l.Sync()
	l.Close()
	// Tear the final frame at every possible byte boundary.
	path := filepath.Join(dir, segName(1))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, fiveEnd, _, err := scanSegment(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// fiveEnd is the end of frame 6 here; recompute the end of frame 5.
	var ends []int64
	var off int64
	for off < fiveEnd {
		n := int64(uint32(whole[off]) | uint32(whole[off+1])<<8 | uint32(whole[off+2])<<16 | uint32(whole[off+3])<<24)
		off += int64(frameHeader) + n
		ends = append(ends, off)
	}
	prevEnd := ends[len(ends)-2]
	for cut := prevEnd + 1; cut < int64(len(whole)); cut += 3 {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		seqs, _ := collect(t, dir, 0)
		if len(seqs) != 5 {
			t.Fatalf("cut %d: replayed %d frames, want 5", cut, len(seqs))
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if seq, _ := l2.Append([]byte("new")); seq != 6 {
			t.Fatalf("cut %d: next seq %d want 6", cut, seq)
		}
		l2.Close()
		os.WriteFile(path, whole, 0o644) // restore for next iteration
	}
}

// TestCorruptMiddle: flipping a byte in a non-final frame is detected.
func TestCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte("aaaaaaaaaa"))
	}
	l.Close()
	path := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(path)
	b[frameHeader+seqBytes+2] ^= 0xff // payload byte of frame 1
	os.WriteFile(path, b, 0o644)
	// Rotate-simulation: make it a non-final segment so the tear is not
	// tolerated even at replay level.
	os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644)
	err := Replay(dir, 0, func(uint64, []byte) error { return nil })
	if err == nil {
		t.Fatal("corruption in a non-final segment must fail replay")
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corruption in a non-final segment must fail Open")
	}
}

// concurrentWriters runs writers goroutines of per Append+Sync rounds each
// against l. Every writer appends its first frame before any of them syncs,
// so the test shares at least that one fsync however the goroutines are
// scheduled.
func concurrentWriters(t *testing.T, l *Log, writers, per int) {
	t.Helper()
	var wg, appended sync.WaitGroup
	appended.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if i == 0 {
					appended.Done()
					appended.Wait()
				}
				if err == nil {
					err = l.Sync()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGroupCommit: concurrent writers all get durable acknowledgments while
// sharing fsyncs.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var hooked atomic.Uint64
	l, err := Open(dir, Options{
		GroupCommit: 2 * time.Millisecond,
		Hooks:       Hooks{BeforeSync: func() error { hooked.Add(1); return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 20
	concurrentWriters(t, l, writers, per)
	st := l.Stats()
	if st.Frames != writers*per || st.SyncedSeq != writers*per || st.FsyncFrames != writers*per {
		t.Fatalf("stats %+v", st)
	}
	if st.Fsyncs >= writers*per || st.Fsyncs != hooked.Load() {
		t.Fatalf("no group commit: %d fsyncs (%d hook calls) for %d synced appends", st.Fsyncs, hooked.Load(), writers*per)
	}
	l.Close()
	if seqs, _ := collect(t, dir, 0); len(seqs) != writers*per {
		t.Fatalf("replayed %d frames", len(seqs))
	}
}

// TestLoneWriterPaysNoWindow: a writer with no company commits at once,
// whatever the GroupCommit ceiling — one fsync per Sync and no timer.
func TestLoneWriterPaysNoWindow(t *testing.T) {
	const rounds, ceiling = 50, 50 * time.Millisecond
	l, err := Open(t.TempDir(), Options{GroupCommit: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := l.Append([]byte("solo")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(t0); took > rounds*ceiling/2 {
		t.Fatalf("%d lone commits took %v: the writer is waiting for a window", rounds, took)
	}
	if st := l.Stats(); st.Fsyncs != rounds || st.FsyncFrames != rounds || st.SyncedSeq != rounds {
		t.Fatalf("stats %+v, want %d fsyncs of one frame each", st, rounds)
	}
}

// slowFile is a segment on a slow disk: every fsync takes 5 ms.
type slowFile struct{ *os.File }

func (f slowFile) Sync() error {
	time.Sleep(5 * time.Millisecond)
	return f.File.Sync()
}

// TestSlowDiskBatches: with no commit window at all, writers that arrive
// while a slow fsync is in flight append without blocking behind it and share
// the next one. They then alternate with the one that led it, seven frames
// and one; with a ceiling to wait under, the leader waits for the seven it
// has seen and the groups fill up.
func TestSlowDiskBatches(t *testing.T) {
	const writers, per = 8, 10
	for _, c := range []struct {
		ceiling time.Duration
		atMost  uint64 // fsyncs; 19 and 11 when the schedule is regular
	}{{0, writers * per / 2}, {100 * time.Millisecond, writers * per / 4}} {
		l, err := Open(t.TempDir(), Options{GroupCommit: c.ceiling})
		if err != nil {
			t.Fatal(err)
		}
		l.f = slowFile{l.f.(*os.File)}
		concurrentWriters(t, l, writers, per)
		st := l.Stats()
		if st.SyncedSeq != writers*per || st.FsyncFrames != writers*per {
			t.Fatalf("ceiling %v: stats %+v", c.ceiling, st)
		}
		// An Append that waited for the commit in flight could never share
		// the next one: there would be one fsync per frame.
		if st.Fsyncs > c.atMost {
			t.Fatalf("ceiling %v: %d fsyncs for %d synced appends, want at most %d", c.ceiling, st.Fsyncs, writers*per, c.atMost)
		}
		t.Logf("ceiling %v: %d fsyncs for %d synced appends", c.ceiling, st.Fsyncs, writers*per)
		l.Close()
	}
}

// TestGatherWaitsOnlyForSeenWriters drives the one deliberate wait by hand: a
// leader waits for a writer the previous commit released with it, stops
// waiting the moment that writer arrives, pays the ceiling once when the
// writer has left, and nothing afterwards.
func TestGatherWaitsOnlyForSeenWriters(t *testing.T) {
	const ceiling = 300 * time.Millisecond
	hold := make(chan struct{})
	var holding atomic.Bool
	l, err := Open(t.TempDir(), Options{GroupCommit: ceiling, Hooks: Hooks{BeforeSync: func() error {
		if holding.Load() {
			<-hold
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	writer := func(done chan<- error) {
		_, err := l.Append([]byte("x"))
		if err == nil {
			err = l.Sync()
		}
		done <- err
	}
	peek := func(f func() bool) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return f()
	}
	await := func(what string, f func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !peek(f); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	done := make(chan error, 2)

	// Round 1: A leads and is held before it takes the buffer; B arrives. The
	// commit releases both.
	holding.Store(true)
	go writer(done)
	await("the leader to reach its hook", func() bool { return l.committing })
	go writer(done)
	await("the second writer to arrive", func() bool { return l.arrived == 2 })
	holding.Store(false)
	close(hold)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.FsyncFrames != 2 {
		t.Fatalf("round 1: stats %+v, want one fsync of two frames", st)
	}

	// Round 2: A is back first and waits for B, then goes the moment B is in.
	t0 := time.Now()
	go writer(done)
	await("the leader to wait for its company", func() bool { return l.committing && l.arrived == 1 })
	if peek(func() bool { return l.fsyncs != 1 }) {
		t.Fatal("round 2: the leader committed without the writer it had seen")
	}
	go writer(done)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(t0); took >= ceiling {
		t.Fatalf("round 2 took %v: the wait ran to its ceiling although the writer arrived", took)
	}
	if st := l.Stats(); st.Fsyncs != 2 || st.FsyncFrames != 4 {
		t.Fatalf("round 2: stats %+v, want two fsyncs of two frames", st)
	}

	// Round 3: B has left. A pays the ceiling once; round 4 pays nothing.
	t0 = time.Now()
	writer(done)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < ceiling {
		t.Fatalf("round 3 took %v: the leader did not wait for the writer it had seen", took)
	}
	t0 = time.Now()
	writer(done)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took >= ceiling {
		t.Fatalf("round 4 took %v: a lone writer is still waiting", took)
	}
	if st := l.Stats(); st.Fsyncs != 4 || st.FsyncFrames != 6 {
		t.Fatalf("stats %+v, want four fsyncs over six frames", st)
	}
}

// TestRotateRacesCommit: Rotate while commits are in flight (run with -race).
// Every acknowledged frame is replayed exactly once, in order, across the
// segments, and no commit ever wrote to a segment Rotate had closed.
func TestRotateRacesCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Hooks: Hooks{BeforeSync: func() error {
		time.Sleep(100 * time.Microsecond) // keep commits in flight
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rotations = 4, 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := l.Append([]byte("frame"))
				if err == nil {
					err = l.Sync()
				}
				if err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	for i := 0; i < rotations; i++ {
		for before := acked.Load(); acked.Load() == before; { // writers are at it
			time.Sleep(50 * time.Microsecond)
		}
		if gen, err := l.Rotate(); err != nil || gen != uint64(i+2) {
			t.Fatalf("rotation %d: generation %d, %v", i, gen, err)
		}
	}
	close(stop)
	wg.Wait()
	total := acked.Load()
	if st := l.Stats(); st.SyncedSeq != total || st.FsyncFrames != total || st.Segments != rotations+1 {
		t.Fatalf("stats %+v after %d acknowledged frames and %d rotations", st, total, rotations)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 0)
	if uint64(len(seqs)) != total {
		t.Fatalf("replayed %d frames, want %d", len(seqs), total)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("frame %d replayed with seq %d", i, seq)
		}
	}
}

// faultyFile is a segment whose next write or fsync fails once armed; a
// failing write first lets tear bytes through, like a disk that fills up
// mid-write.
type faultyFile struct {
	*os.File
	failWrite, failSync bool
	tear                int
	writes              [][]byte
}

var errDisk = errors.New("injected disk error")

func (f *faultyFile) Write(p []byte) (int, error) {
	f.writes = append(f.writes, append([]byte(nil), p...))
	if f.failWrite {
		f.failWrite = false
		n, _ := f.File.Write(p[:f.tear])
		return n, errDisk
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errDisk
	}
	return f.File.Sync()
}

// TestFailedLogStaysFailed: after a real write or fsync error nothing is
// retried — no byte of the failed buffer reaches the segment twice, no later
// Sync reports the lost frames durable — and every later call returns the
// first error. What was acknowledged before survives a reopen.
func TestFailedLogStaysFailed(t *testing.T) {
	for _, failure := range []string{"write", "fsync"} {
		t.Run(failure, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				l.Append([]byte(fmt.Sprintf("acked-%d", i)))
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(1))
			before, _ := os.ReadFile(path)
			ff := &faultyFile{File: l.f.(*os.File), failWrite: failure == "write", failSync: failure == "fsync", tear: 5}
			l.f = ff
			l.Append([]byte("lost-a"))
			l.Append([]byte("lost-b"))
			first := l.Sync()
			if !errors.Is(first, ErrFailed) || !errors.Is(first, errDisk) {
				t.Fatalf("failed commit returned %v, want ErrFailed wrapping the disk error", first)
			}
			// The disk is healthy again; the log must not be.
			if err := l.Sync(); !errors.Is(err, ErrFailed) || err.Error() != first.Error() {
				t.Fatalf("second Sync returned %v, want the first error again", err)
			}
			if _, err := l.Append([]byte("late")); !errors.Is(err, ErrFailed) {
				t.Fatalf("Append on a failed log: %v", err)
			}
			if err := l.AppendSeq(99, []byte("late")); !errors.Is(err, ErrFailed) {
				t.Fatalf("AppendSeq on a failed log: %v", err)
			}
			if _, err := l.Rotate(); !errors.Is(err, ErrFailed) {
				t.Fatalf("Rotate on a failed log: %v", err)
			}
			if err := l.StartSync()(); !errors.Is(err, ErrFailed) {
				t.Fatalf("StartSync on a failed log: %v", err)
			}
			if st := l.Stats(); st.SyncedSeq != 3 || st.Fsyncs != 1 {
				t.Fatalf("the failed commit was counted durable: %+v", st)
			}
			if len(ff.writes) != 1 {
				t.Fatalf("%d writes reached the segment after the failure, want the failed one only", len(ff.writes))
			}
			after, _ := os.ReadFile(path)
			want := append([]byte(nil), before...)
			if failure == "write" {
				want = append(want, ff.writes[0][:ff.tear]...)
			} else {
				want = append(want, ff.writes[0]...)
			}
			if !bytes.Equal(after, want) {
				t.Fatalf("segment holds %d bytes, want the %d acknowledged plus the failed write once (%d)", len(after), len(before), len(want))
			}
			if err := l.Close(); !errors.Is(err, ErrFailed) {
				t.Fatalf("Close of a failed log: %v", err)
			}
			// Reopen: the acknowledged prefix replays; the torn write is cut.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after failure: %v", err)
			}
			defer l2.Close()
			seqs, _ := collect(t, dir, 0)
			if failure == "write" && len(seqs) != 3 {
				t.Fatalf("replayed %v after a torn write, want the 3 acknowledged frames", seqs)
			}
			if len(seqs) < 3 || seqs[2] != 3 {
				t.Fatalf("acknowledged frames lost: %v", seqs)
			}
		})
	}
}

func TestRotateAndRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	gen2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != 2 {
		t.Fatalf("gen %d want 2", gen2)
	}
	l.Append([]byte("c"))
	l.Sync()
	// All three frames visible across segments.
	if seqs, _ := collect(t, dir, 0); len(seqs) != 3 {
		t.Fatalf("replay across segments: %v", seqs)
	}
	if err := l.RemoveBelow(gen2); err != nil {
		t.Fatal(err)
	}
	seqs, recs := collect(t, dir, 0)
	if len(seqs) != 1 || seqs[0] != 3 || string(recs[0]) != "c" {
		t.Fatalf("after GC: %v %q", seqs, recs)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("stats %+v", st)
	}
	l.Close()
	// Reopen continues the sequence even though early segments are gone.
	l2, _ := Open(dir, Options{})
	if seq, _ := l2.Append([]byte("d")); seq != 4 {
		t.Fatalf("seq after GC+reopen: %d want 4", seq)
	}
	l2.Close()
}

// TestHookErrors: a failing BeforeWrite rejects the append without assigning
// the sequence number; a failing BeforeSync fails Sync and nothing advances.
func TestHookErrors(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	var failWrite, failSync bool
	l, _ := Open(dir, Options{Hooks: Hooks{
		BeforeWrite: func(uint64) error {
			if failWrite {
				return boom
			}
			return nil
		},
		BeforeSync: func() error {
			if failSync {
				return boom
			}
			return nil
		},
	}})
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	failWrite = true
	if _, err := l.Append([]byte("no")); !errors.Is(err, boom) {
		t.Fatalf("BeforeWrite error not surfaced: %v", err)
	}
	failWrite = false
	if seq, _ := l.Append([]byte("ok2")); seq != 2 {
		t.Fatalf("failed append consumed a sequence number: next got %d", seq)
	}
	failSync = true
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("BeforeSync error not surfaced: %v", err)
	}
	if st := l.Stats(); st.SyncedSeq != 0 {
		t.Fatalf("failed sync advanced the watermark: %+v", st)
	}
	failSync = false
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncedSeq != 2 {
		t.Fatalf("stats %+v", st)
	}
	l.Close()
}

func TestReplayMissingDir(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope"), 0, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("missing dir should replay empty: %v", err)
	}
}
