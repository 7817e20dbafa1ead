package main

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"time"
)

// child is one mvdbd process started by the harness.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logFile *os.File
	exited  chan struct{} // closed once the process has been waited for
	done    bool          // kill or terminate has run
}

// startServer execs mvdbd on a free loopback port with the WAL on, fsync on
// and a 2 ms group commit, and waits for the first 200 from /readyz. The
// returned duration runs from the exec to that response: generate, translate,
// compile and WAL open — or, on a directory that already holds a log, the
// recovery.
func startServer(bin string, sp spec, walDir, logPath string) (*child, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, 0, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-addr", addr,
		"-authors", strconv.Itoa(sp.domain),
		"-seed", strconv.Itoa(datasetSeed),
		"-wal-dir", walDir,
		"-group-commit", "2ms",
	}
	if sp.cacheEntries != 0 {
		args = append(args, "-cache-entries", strconv.Itoa(sp.cacheEntries))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("benchmark: starting %s: %w", bin, err)
	}
	exited := make(chan struct{})
	c := &child{cmd: cmd, base: "http://" + addr, logFile: logFile, exited: exited}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		select {
		case <-exited:
			c.done = true
			logFile.Close()
			return nil, 0, fmt.Errorf("benchmark: mvdbd exited before it was ready (%v); see %s", cmd.ProcessState, logPath)
		default:
		}
		if resp, err := probe.Get(c.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 2*time.Minute {
			c.kill()
			return nil, 0, fmt.Errorf("benchmark: mvdbd not ready after 2 minutes; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to end. It is safe to call on
// a child that has already ended.
func (c *child) kill() {
	if c == nil || c.done {
		return
	}
	c.done = true
	_ = c.cmd.Process.Kill() // already gone is fine
	<-c.exited
	c.logFile.Close()
}

// terminate sends SIGTERM and requires the drain to end with exit code 0.
func (c *child) terminate() error {
	if c.done {
		return errors.New("benchmark: mvdbd already ended")
	}
	c.done = true
	defer c.logFile.Close()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.exited:
	case <-time.After(time.Minute):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return errors.New("benchmark: mvdbd did not exit within a minute of SIGTERM")
	}
	if code := c.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("benchmark: mvdbd exited %d after SIGTERM", code)
	}
	return nil
}

// peakRSSMB reads the child's VmHWM, its peak resident set, in MB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("benchmark: no VmHWM in /proc status")
}

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends a JSON body and returns the body of a 2xx response. Any other
// status is an error carrying the body's first bytes.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readResponse(resp)
}

func readResponse(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if len(b) > 200 {
			b = b[:200]
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// answer is one row of a /query response. Head values are ids (numbers) or
// names (strings).
type answer struct {
	Head []any   `json:"head"`
	Prob float64 `json:"prob"`
}

type queryResponse struct {
	Answers []answer `json:"answers"`
	Millis  float64  `json:"millis"`
}

// updateResponse is what /update and /reweight acknowledge with, after the
// fsync.
type updateResponse struct {
	Seq        uint64  `json:"seq"`
	WeightOnly bool    `json:"weight_only"`
	Full       bool    `json:"full"`
	Blocks     int     `json:"blocks"`
	Reused     int     `json:"reused"`
	Recompiled int     `json:"recompiled"`
	Millis     float64 `json:"millis"`
}

func (c *client) write(op writeOp) (updateResponse, error) {
	var r updateResponse
	var body []byte
	var err error
	path := "/update"
	if op.class == classReweight {
		path = "/reweight"
		body, err = json.Marshal(op.muts[0])
	} else {
		body, err = json.Marshal(map[string]any{"mutations": op.muts})
	}
	if err != nil {
		return r, err
	}
	b, err := c.post(path, body)
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	return r, err
}

// cacheCounters mirrors qcache.Stats in GET /stats.
type cacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// serverStats is the part of GET /stats the per-layer metrics are read from.
type serverStats struct {
	IndexNodes   int `json:"index_nodes"`
	ManagerNodes int `json:"manager_nodes"`
	Cache        struct {
		Answers cacheCounters `json:"answers"`
		Lineage cacheCounters `json:"lineage"`
	} `json:"cache"`
	Live struct {
		WAL struct {
			Frames uint64 `json:"frames"`
			Bytes  int64  `json:"bytes"`
		} `json:"wal"`
	} `json:"live"`
}

func (c *client) stats() (serverStats, error) {
	var s serverStats
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	b, err := readResponse(resp)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	return s, err
}
