package replica

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestFrameCodecRoundtrip(t *testing.T) {
	cases := []struct {
		seq uint64
		rec []byte
	}{
		{1, []byte("hello")},
		{42, nil}, // heartbeat
		{1 << 40, bytes.Repeat([]byte{0xab}, 10_000)},
	}
	var stream bytes.Buffer
	for _, c := range cases {
		stream.Write(encodeFrame(c.seq, c.rec))
	}
	fr := newFrameReader(&stream)
	for i, c := range cases {
		seq, rec, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != c.seq || !bytes.Equal(rec, c.rec) {
			t.Fatalf("frame %d: got (%d, %d bytes) want (%d, %d bytes)", i, seq, len(rec), c.seq, len(c.rec))
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameReaderRejectsCorruption(t *testing.T) {
	frame := encodeFrame(7, []byte("payload-bytes"))
	for flip := 0; flip < len(frame); flip++ {
		b := append([]byte(nil), frame...)
		b[flip] ^= 0x01
		fr := newFrameReader(bytes.NewReader(b))
		seq, rec, err := fr.next()
		if err == nil && (seq != 7 || !bytes.Equal(rec, []byte("payload-bytes"))) {
			t.Fatalf("flip %d: corrupt frame decoded as (%d, %q)", flip, seq, rec)
		}
		if err == nil {
			t.Fatalf("flip %d: corruption not detected", flip)
		}
	}
	// Truncation anywhere is a tear, not EOF (EOF only between frames).
	for cut := 1; cut < len(frame); cut++ {
		fr := newFrameReader(bytes.NewReader(frame[:cut]))
		if _, _, err := fr.next(); err == nil || err == io.EOF {
			t.Fatalf("cut %d: truncated frame returned %v", cut, err)
		}
	}
}

func TestTermStore(t *testing.T) {
	dir := t.TempDir()
	if term, err := LoadTerm(dir); err != nil || term != 0 {
		t.Fatalf("missing term file: got %d, %v; want 0, nil", term, err)
	}
	for _, term := range []uint64{1, 7, 1 << 50} {
		if err := SaveTerm(dir, term); err != nil {
			t.Fatal(err)
		}
		got, err := LoadTerm(dir)
		if err != nil || got != term {
			t.Fatalf("roundtrip %d: got %d, %v", term, got, err)
		}
	}
	// Corruption is a hard error, never a guessed term.
	path := filepath.Join(dir, termFile)
	b, _ := os.ReadFile(path)
	b[3] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, err := LoadTerm(dir); err == nil {
		t.Fatal("corrupt term file must error")
	}
	os.WriteFile(path, []byte("short"), 0o644)
	if _, err := LoadTerm(dir); err == nil {
		t.Fatal("wrong-size term file must error")
	}
}

// fakePrimary scripts one handler per stream connection. Each script gets the
// writer after the 200 header (with the given term) is out; returning ends
// the stream.
type fakePrimary struct {
	t    *testing.T
	term uint64

	mu      sync.Mutex
	scripts []func(w io.Writer, r *http.Request)
	conns   int
	afters  []uint64
	srv     *httptest.Server
}

func newFakePrimary(t *testing.T, term uint64, scripts ...func(w io.Writer, r *http.Request)) *fakePrimary {
	p := &fakePrimary{t: t, term: term, scripts: scripts}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		i := p.conns
		p.conns++
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		p.afters = append(p.afters, after)
		var script func(io.Writer, *http.Request)
		if i < len(p.scripts) {
			script = p.scripts[i]
		}
		p.mu.Unlock()
		if script == nil {
			// Out of script: park until the follower goes away.
			w.Header().Set(HeaderTerm, strconv.FormatUint(p.term, 10))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
			return
		}
		w.Header().Set(HeaderTerm, strconv.FormatUint(p.term, 10))
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		script(flushWriter{w}, r)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(b []byte) (int, error) {
	n, err := f.w.Write(b)
	f.w.(http.Flusher).Flush()
	return n, err
}

func (p *fakePrimary) connAfters() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.afters...)
}

// recorder collects applied frames.
type recorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (rec *recorder) apply(seq uint64, _ []byte) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.seqs = append(rec.seqs, seq)
	return nil
}

func (rec *recorder) applied() []uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]uint64(nil), rec.seqs...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fastBackoff(cfg FollowerConfig) FollowerConfig {
	cfg.MinBackoff = 5 * time.Millisecond
	cfg.MaxBackoff = 20 * time.Millisecond
	return cfg
}

func TestFollowerAppliesAndResumes(t *testing.T) {
	p := newFakePrimary(t, 1,
		func(w io.Writer, _ *http.Request) {
			for seq := uint64(1); seq <= 3; seq++ {
				w.Write(encodeFrame(seq, []byte{byte(seq)}))
			}
			// Connection drops here; the follower must resume from 3.
		},
		func(w io.Writer, r *http.Request) {
			for seq := uint64(4); seq <= 5; seq++ {
				w.Write(encodeFrame(seq, []byte{byte(seq)}))
			}
			<-r.Context().Done()
		},
	)
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: p.srv.URL,
		Term:    func() uint64 { return 0 },
		Apply:   rec.apply,
	}))
	defer f.Stop()
	waitFor(t, "five frames", func() bool { return f.applied.Load() == 5 })
	got := rec.applied()
	for i, want := range []uint64{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("applied %v", got)
		}
	}
	afters := p.connAfters()
	if len(afters) < 2 || afters[0] != 0 || afters[1] != 3 {
		t.Fatalf("resume cursors %v, want [0 3 ...]", afters)
	}
	if st := f.Stats(); st.Retries == 0 || st.PrimaryTerm != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFollowerSkipsDuplicates(t *testing.T) {
	p := newFakePrimary(t, 1, func(w io.Writer, r *http.Request) {
		w.Write(encodeFrame(1, []byte("a")))
		w.Write(encodeFrame(1, []byte("a"))) // duplicated delivery
		w.Write(encodeFrame(2, []byte("b")))
		<-r.Context().Done()
	})
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: p.srv.URL,
		Term:    func() uint64 { return 0 },
		Apply:   rec.apply,
	}))
	defer f.Stop()
	waitFor(t, "two applies", func() bool { return f.applied.Load() == 2 })
	if got := rec.applied(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("applied %v, want [1 2]", got)
	}
	if st := f.Stats(); st.Duplicates != 1 {
		t.Fatalf("stats %+v, want 1 duplicate", st)
	}
}

func TestFollowerGapForcesReconnect(t *testing.T) {
	p := newFakePrimary(t, 1,
		func(w io.Writer, _ *http.Request) {
			w.Write(encodeFrame(1, []byte("a")))
			w.Write(encodeFrame(3, []byte("c"))) // frame 2 lost in flight
		},
		func(w io.Writer, r *http.Request) {
			w.Write(encodeFrame(2, []byte("b")))
			w.Write(encodeFrame(3, []byte("c")))
			<-r.Context().Done()
		},
	)
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: p.srv.URL,
		Term:    func() uint64 { return 0 },
		Apply:   rec.apply,
	}))
	defer f.Stop()
	waitFor(t, "three applies", func() bool { return f.applied.Load() == 3 })
	if got := rec.applied(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("applied %v, want [1 2 3] — a gap must never be applied around", got)
	}
	if st := f.Stats(); st.Gaps != 1 {
		t.Fatalf("stats %+v, want 1 gap", st)
	}
	if afters := p.connAfters(); afters[1] != 1 {
		t.Fatalf("reconnect cursor %v, want after=1 (frame 3 discarded)", afters)
	}
}

func TestFollowerRejectsStalePrimaryTerm(t *testing.T) {
	p := newFakePrimary(t, 2) // primary stuck at term 2
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: p.srv.URL,
		Term:    func() uint64 { return 5 }, // we were promoted past it
		Apply:   rec.apply,
	}))
	defer f.Stop()
	waitFor(t, "a few rejections", func() bool { return f.Stats().Retries >= 2 })
	if got := rec.applied(); len(got) != 0 {
		t.Fatalf("applied %v from a stale primary", got)
	}
	if f.Stats().Connected {
		t.Fatal("still marked connected to a stale primary")
	}
}

func TestFollowerHeartbeatAdvancesStaleness(t *testing.T) {
	p := newFakePrimary(t, 1, func(w io.Writer, r *http.Request) {
		w.Write(encodeFrame(7, []byte("x"))) // wait: cursor 6 set below
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-t.C:
				w.Write(encodeFrame(7, nil)) // heartbeat at synced=7
			}
		}
	})
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: p.srv.URL,
		Term:    func() uint64 { return 0 },
		After:   6,
		Apply:   rec.apply,
	}))
	defer f.Stop()
	waitFor(t, "frame 7", func() bool { return f.applied.Load() == 7 })
	time.Sleep(100 * time.Millisecond) // several heartbeats
	if s := f.Staleness(); s > time.Second {
		t.Fatalf("staleness %v despite heartbeats", s)
	}
	if st := f.Stats(); st.PrimarySynced != 7 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFollowerStallWatchdog(t *testing.T) {
	// A primary that opens the stream and then says nothing: the watchdog
	// must cancel the read and the follower must retry.
	p := newFakePrimary(t, 1)
	rec := &recorder{}
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary:          p.srv.URL,
		Term:             func() uint64 { return 0 },
		Apply:            rec.apply,
		HeartbeatTimeout: 50 * time.Millisecond,
	}))
	defer f.Stop()
	waitFor(t, "stall retries", func() bool { return f.Stats().Retries >= 2 })
}

func TestFollowerBootstrapsOn410(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := conns
		conns++
		mu.Unlock()
		if i == 0 {
			w.Header().Set(HeaderTerm, "1")
			w.WriteHeader(http.StatusGone)
			return
		}
		w.Header().Set(HeaderTerm, "1")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		flushWriter{w}.Write(encodeFrame(101, []byte("after-snapshot")))
		<-r.Context().Done()
	}))
	defer srv.Close()
	rec := &recorder{}
	bootstrapped := make(chan struct{})
	var once sync.Once
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: srv.URL,
		Term:    func() uint64 { return 0 },
		Apply:   rec.apply,
		Bootstrap: func(context.Context) (uint64, error) {
			once.Do(func() { close(bootstrapped) })
			return 100, nil // snapshot covered seq 100
		},
	}))
	defer f.Stop()
	<-bootstrapped
	waitFor(t, "post-bootstrap frame", func() bool { return f.applied.Load() == 101 })
	if st := f.Stats(); st.Bootstraps != 1 {
		t.Fatalf("stats %+v, want 1 bootstrap", st)
	}
}

// TestStopCancelsInflightBootstrap: Stop must cancel a bootstrap in
// progress, not wait out its timeout — promotion calls Stop under the
// server's role lock, so a blocking bootstrap would stall every replication
// endpoint for the full bootstrap timeout.
func TestStopCancelsInflightBootstrap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(HeaderTerm, "1")
		w.WriteHeader(http.StatusGone) // every stream demands a snapshot
	}))
	defer srv.Close()
	entered := make(chan struct{})
	var once sync.Once
	f := StartFollower(fastBackoff(FollowerConfig{
		Primary: srv.URL,
		Term:    func() uint64 { return 0 },
		Apply:   func(uint64, []byte) error { return nil },
		Bootstrap: func(ctx context.Context) (uint64, error) {
			once.Do(func() { close(entered) })
			<-ctx.Done() // a slow snapshot fetch, bounded only by its context
			return 0, ctx.Err()
		},
	}))
	<-entered
	done := make(chan struct{})
	go func() {
		f.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked on an in-flight bootstrap")
	}
}

func TestFetchSnapshotVerifiesChecksum(t *testing.T) {
	data := []byte("snapshot-bytes")
	corrupt := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body := data
		if corrupt {
			body = append([]byte(nil), data...)
			body[0] ^= 0xff
		}
		w.Header().Set(HeaderSeq, "12")
		w.Header().Set(HeaderTerm, "3")
		w.Header().Set(HeaderChecksum, checksumHex(data))
		w.Write(body)
	}))
	defer srv.Close()
	snap, err := FetchSnapshot(context.Background(), nil, srv.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 12 || snap.Term != 3 || !bytes.Equal(snap.Data, data) {
		t.Fatalf("snapshot %+v", snap)
	}
	corrupt = true
	if _, err := FetchSnapshot(context.Background(), nil, srv.URL, 1); err == nil {
		t.Fatal("corrupted snapshot body must fail the checksum")
	}
	// A snapshot from a primary below our own term is refused.
	if _, err := FetchSnapshot(context.Background(), nil, srv.URL, 9); err == nil {
		t.Fatal("stale-term snapshot must be refused")
	}
}

func TestHooksShipFrame(t *testing.T) {
	// The fault hooks transform the outbound byte stream only; a nil return
	// drops the frame entirely.
	frame := encodeFrame(1, []byte("x"))
	var h Hooks
	if h.ShipFrame != nil {
		t.Fatal("zero Hooks must be pass-through (nil func)")
	}
	h.ShipFrame = func(seq uint64, f []byte) [][]byte { return [][]byte{f, f} }
	outs := h.ShipFrame(1, frame)
	if len(outs) != 2 || !bytes.Equal(outs[0], frame) {
		t.Fatalf("duplicate hook returned %d frames", len(outs))
	}
}
