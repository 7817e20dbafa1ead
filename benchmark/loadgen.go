package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	class    string
	ms       float64 // latency; in an open loop, from the instant the request was due
	serverMs float64 // the "millis" field of the response
	lagMs    float64 // open loop: how long after it was due the request was sent
	at       float64 // seconds from the window's start to the response
	ok       bool    // 2xx and decodable
}

// row is one answer in comparable form.
type row struct {
	head string
	prob float64
}

// tolerance is how far two probabilities for the same answer may differ.
const tolerance = 1e-12

func rowsOf(answers []answer) []row {
	out := make([]row, len(answers))
	for i, a := range answers {
		key := ""
		for _, v := range a.Head {
			switch x := v.(type) {
			case float64: // an id, decoded from JSON
				key += strconv.FormatInt(int64(x), 10) + ","
			case int64: // an id, straight from the engine
				key += strconv.FormatInt(x, 10) + ","
			case string:
				key += strconv.Quote(x) + ","
			default:
				key += fmt.Sprintf("?%v,", x)
			}
		}
		out[i] = row{key, a.Prob}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].head < out[j].head })
	return out
}

// sameRows reports whether two sorted answer sets name the same heads with
// probabilities within tol of each other.
func sameRows(a, b []row, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// The negated form also rejects a NaN.
		if a[i].head != b[i].head || !(math.Abs(a[i].prob-b[i].prob) <= tol) {
			return false
		}
	}
	return true
}

// reader is one read client: its connection and what it has seen. Every
// response for a query must equal the first one for it; the first ones are
// compared with the reference index once the run is over.
type reader struct {
	c      *client
	bodies [][]byte      // request body of each query index
	first  map[int][]row // first response per query index
	count  map[int]int   // requests per query index
	failed int           // transport errors, non-2xx, or differing from the first response
}

func newReader(base string, bodies [][]byte) *reader {
	return &reader{c: newClient(base), bodies: bodies, first: map[int][]row{}, count: map[int]int{}}
}

// read sends query qi and records the outcome. due is when the request
// should have been sent: now, in a closed loop.
func (r *reader) read(qi int, class string, due, start time.Time) sample {
	body, err := r.c.post("/query", r.bodies[qi])
	done := time.Now()
	s := sample{
		class: class,
		ms:    done.Sub(due).Seconds() * 1e3,
		at:    done.Sub(start).Seconds(),
	}
	r.count[qi]++
	var resp queryResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		r.failed++
		return s
	}
	s.serverMs, s.ok = resp.Millis, true
	rows := rowsOf(resp.Answers)
	if first, seen := r.first[qi]; !seen {
		r.first[qi] = rows
	} else if !sameRows(first, rows, tolerance) {
		r.failed++
	}
	return s
}

// clock is the time source of the open-loop scheduler, so a test can run a
// schedule without waiting for it.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the thread in nanosleep(2). time.Sleep would wake through
// the runtime's poller, whose timeout has millisecond resolution: it ran
// 0.7 ms late at the median here, nanosleep 0.1 ms.
func (wallClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps what is left
	}
}

// timing is one open-loop request, as offsets from the schedule's start.
type timing struct {
	due, sent, done time.Duration
}

// openLoop issues n requests on one connection, request i due at
// start + i*interval. A request is sent when it is due or, if the previous
// one is still out, as soon as that returns; it is never skipped. Latency
// counts from the due instant, so the wait a stall imposes on the requests
// behind it is charged to them.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, do func(i int, due time.Time)) []timing {
	out := make([]timing, n)
	for i := range out {
		due := start.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		sent := clk.Now()
		do(i, due)
		out[i] = timing{due: due.Sub(start), sent: sent.Sub(start), done: clk.Now().Sub(start)}
	}
	return out
}

// lagMs is how long after it was due request i was sent.
func (t timing) lagMs() float64 { return (t.sent - t.due).Seconds() * 1e3 }

// idleBefore reports whether the connection was free when request i fell
// due: its lag is then the generator's own, not a stall's.
func idleBefore(ts []timing, i int) bool { return i == 0 || ts[i-1].done <= ts[i].due }

// closedReads runs the read clients until the deadline: each sends its next
// request when its last one returned.
func closedReads(readers []*reader, g *generator, start time.Time, window time.Duration) []sample {
	perClient := make([][]sample, len(readers))
	var wg sync.WaitGroup
	for c, r := range readers {
		wg.Add(1)
		go func(c int, r *reader) {
			defer wg.Done()
			for time.Since(start) < window {
				qi := g.read(c)
				perClient[c] = append(perClient[c], r.read(qi, g.ds.queries[qi].class, time.Now(), start))
			}
		}(c, r)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// writer is the write client: its connection, how far into the generator's
// write stream it is, and every acknowledgment.
type writer struct {
	c      *client
	g      *generator
	next   int // index of the next request of the write stream
	acked  []writeOp
	resps  []updateResponse
	failed int
}

// write sends the next request of the write stream.
func (w *writer) write(due, start time.Time) sample {
	op := w.g.write(w.next)
	w.next++
	resp, err := w.c.write(op)
	done := time.Now()
	if err != nil {
		w.failed++
	} else {
		w.acked = append(w.acked, op)
		w.resps = append(w.resps, resp)
	}
	return sample{
		class:    op.class,
		ms:       done.Sub(due).Seconds() * 1e3,
		serverMs: resp.Millis,
		at:       done.Sub(start).Seconds(),
		ok:       err == nil,
	}
}

// queryBodies marshals the /query body of every query once, so the timed
// loops do not.
func queryBodies(qs []query) ([][]byte, error) {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		b, err := json.Marshal(map[string]string{"query": q.text})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
