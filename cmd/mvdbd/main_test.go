package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildMvdbd compiles the binary once per test run into a temp dir.
func buildMvdbd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mvdbd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReady polls /readyz until the server answers 200 or the deadline hits.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, err := http.Get(base + "/readyz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestGracefulSIGTERM boots the real binary on a small dataset, verifies it
// serves, sends SIGTERM, and asserts a clean (exit 0) drain.
func TestGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	bin := buildMvdbd(t)
	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-authors", "120", "-query-timeout", "5s", "-max-inflight", "8")
	var logs strings.Builder
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	defer func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	}()

	base := "http://" + addr
	waitReady(t, base)

	// The service answers a real query before shutdown: student 1 has
	// advisors at 120 authors, so the answers are not empty.
	res, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query": "Q(a) :- Advisor(1,a)"}`))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("query: code = %d body %s", res.StatusCode, body)
	}
	if !strings.Contains(string(body), `"answers":[{`) {
		t.Fatalf("query: no answers: %s", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("SIGTERM exit: %v (want exit 0)\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after SIGTERM\nlogs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "clean exit") {
		t.Errorf("missing clean-exit log line:\n%s", logs.String())
	}
}

// TestFlagPropagation verifies the degradation flags reach the handler: a
// one-nanosecond query timeout turns every query into a structured 408.
func TestFlagPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	bin := buildMvdbd(t)
	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-authors", "120", "-query-timeout", "1ns")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	base := "http://" + addr
	waitReady(t, base)
	res, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query": "Q(a) :- Advisor(1,a)"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestTimeout {
		t.Errorf("1ns timeout: code = %d body %s", res.StatusCode, body)
	}
	if !strings.Contains(string(body), `"reason"`) || !strings.Contains(string(body), "timeout") {
		t.Errorf("missing structured reason: %s", body)
	}
}

// TestServesOfflineSiftedIndex: sifting is an offline step. mvdb learns the
// variable order and saves the index; mvdbd -load-index serves it under that
// order — /stats reports the reorder block with provenance "snapshot" — and
// answers what mvdb answers from the same file.
func TestServesOfflineSiftedIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binaries")
	}
	dir := t.TempDir()
	mvdb := filepath.Join(dir, "mvdb")
	if out, err := exec.Command("go", "build", "-o", mvdb, "mvdb/cmd/mvdb").CombinedOutput(); err != nil {
		t.Fatalf("go build mvdb: %v\n%s", err, out)
	}
	bin := buildMvdbd(t)
	index := filepath.Join(dir, "dblp.mvx")
	const query = "Q(s, a) :- Advisor(s, a)"
	if out, err := exec.Command(mvdb, "-authors", "120", "-reorder", "once", "-save-index", index, query).CombinedOutput(); err != nil {
		t.Fatalf("mvdb -reorder once -save-index: %v\n%s", err, out)
	}
	out, err := exec.Command(mvdb, "-load-index", index, query).Output()
	if err != nil {
		t.Fatalf("mvdb -load-index: %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if !strings.HasPrefix(line, "-- ") {
			want = append(want, line)
		}
	}

	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-load-index", index)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()
	base := "http://" + addr
	waitReady(t, base)

	res, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Reorder *struct {
			Mode       string `json:"mode"`
			Provenance string `json:"provenance"`
		} `json:"reorder"`
	}
	err = json.NewDecoder(res.Body).Decode(&stats)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reorder == nil || stats.Reorder.Mode != "once" || stats.Reorder.Provenance != "snapshot" {
		t.Fatalf("/stats reorder = %+v, want mode once, provenance snapshot", stats.Reorder)
	}

	res, err = http.Post(base+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, query)))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Answers []struct {
			Head []json.Number `json:"head"`
			Prob float64       `json:"prob"`
		} `json:"answers"`
	}
	dec := json.NewDecoder(res.Body)
	dec.UseNumber()
	err = dec.Decode(&body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// mvdb prints each answer as its head values and every bit of the
	// probability; print the served answers the same way.
	var got []string
	for _, a := range body.Answers {
		parts := make([]string, len(a.Head))
		for i, v := range a.Head {
			parts[i] = v.String()
		}
		got = append(got, fmt.Sprintf("%-40s %s", strings.Join(parts, ", "), strconv.FormatFloat(a.Prob, 'g', -1, 64)))
	}
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("served answers differ from mvdb -load-index:\n%s\nvs\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
