package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 beyond the median
		{20, 0.5, true},
		{40, 0.75, true},
		{99, 0.75, true}, // 9.9 beyond p90
		{100, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := supportedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if d := summarize(s); d.TailP != 0.9 || d.Tail != 90 || d.N != 100 {
		t.Errorf("summarize(1..100) = %+v", d)
	}
}

// The expected values are statistics.quantiles(values, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{20, 10})
	if q1 != 7.5 || med != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v %v %v, want 7.5 15 22.5", q1, med, q3)
	}
	if got := spread([]float64{10, 20}); got != 1 {
		t.Errorf("spread(10, 20) = %v, want 1", got)
	}
}

// fakeClock stands still unless told to move.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const ms = time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	// Request 0 stalls for 30 ms on a 10 ms schedule; the rest take 1 ms.
	ts := openLoop(clk, start, 10*ms, 5, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * 10 * ms); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		if i == 0 {
			clk.now = clk.now.Add(30 * ms)
		} else {
			clk.now = clk.now.Add(ms)
		}
	})
	want := []timing{
		{due: 0, sent: 0, done: 30 * ms},
		{due: 10 * ms, sent: 30 * ms, done: 31 * ms}, // waited 20 ms for the stall: latency 21 ms, not 1
		{due: 20 * ms, sent: 31 * ms, done: 32 * ms},
		{due: 30 * ms, sent: 32 * ms, done: 33 * ms},
		{due: 40 * ms, sent: 40 * ms, done: 41 * ms}, // caught up
	}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("timings\n got %v\nwant %v", ts, want)
	}
	if lag := ts[1].lagMs(); lag != 20 {
		t.Errorf("request 1 send lag %v ms, want 20", lag)
	}
	for i, wantIdle := range []bool{true, false, false, false, true} {
		if got := idleBefore(ts, i); got != wantIdle {
			t.Errorf("idleBefore(%d) = %v, want %v", i, got, wantIdle)
		}
	}
}

func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	datasets := map[int]*dataset{}
	for _, sp := range specs {
		ds := datasets[sp.domain]
		if ds == nil {
			var err error
			if ds, err = newDataset(sp.domain); err != nil {
				t.Fatal(err)
			}
			datasets[sp.domain] = ds
		}
		// every picks which of the two read clients draws next; a client's
		// stream must not depend on how far the other got.
		draw := func(seed int64, every int) (reads [][]int, writes []writeOp) {
			g := newGenerator(sp, ds, seed)
			reads = make([][]int, readClients)
			for i := 0; len(reads[0]) < 300 || len(reads[1]) < 300; i++ {
				c := 0
				if i%every == 0 {
					c = 1
				}
				if len(reads[c]) < 300 {
					reads[c] = append(reads[c], g.read(c))
				}
			}
			for k := 0; k < 40; k++ {
				writes = append(writes, g.write(k))
			}
			return reads, writes
		}
		r1, w1 := draw(7, 2)
		r2, w2 := draw(7, 5)
		if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
			t.Errorf("%s: the same seed gave different requests", sp.name)
		}
		r3, w3 := draw(9, 2)
		if reflect.DeepEqual(r1, r3) {
			t.Errorf("%s: seeds 7 and 9 gave the same reads", sp.name)
		}
		if reflect.DeepEqual(w1, w3) {
			t.Errorf("%s: seeds 7 and 9 gave the same writes", sp.name)
		}

		// Writes stay on the reserved students; reads outside the read-back
		// never name one, which the query indexes guarantee.
		reserved := map[int64]bool{}
		for _, s := range ds.reserved {
			reserved[s] = true
		}
		for k, op := range w1 {
			if k%5 == 4 != (op.class == classReweight) {
				t.Errorf("%s: write %d is %s", sp.name, k, op.class)
			}
			for _, m := range op.muts {
				if !reserved[m.Vals[0]] {
					t.Errorf("%s: write %d touches student %d, which is not reserved", sp.name, k, m.Vals[0])
				}
			}
		}
		for c := range r1 {
			for _, qi := range r1[c] {
				if qi >= ds.readBack0 {
					t.Errorf("%s: read stream drew read-back query %d", sp.name, qi)
				}
			}
		}
	}
}

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Request: 1, Name: "read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Request: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Request: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 4, Parent: 1, Request: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 3, Request: 1, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 0, Request: 2, Name: "read", Start: 200, End: 260},
		{ID: 7, Parent: 6, Request: 2, Name: "a", Start: 200, End: 230},
	}
	want := []int64{50, 20, 20, 30, 10, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	perLayer := layerTimes(spans, "read")
	if got := perLayer["a"]; !reflect.DeepEqual(got, []float64{0.02, 0.03}) {
		t.Errorf("layer a per request = %v us, want [0.02 0.03]", got)
	}
	if got := perLayer["read"]; !reflect.DeepEqual(got, []float64{0.05, 0.03}) {
		t.Errorf("time between spans = %v us, want [0.05 0.03]", got)
	}
	rows, coverage := shares(perLayer, "read")
	total := 0.0
	for _, r := range rows {
		total += r.Share
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	// Self times sum to 50+20+20+30+10 + 30+30 = 190, of which 80 lie
	// between spans.
	if want := 1 - 80.0/190; math.Abs(coverage-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", coverage, want)
	}
}

func TestSameRows(t *testing.T) {
	a := rowsOf([]answer{{Head: []any{float64(7), "x"}, Prob: 0.25}, {Head: []any{float64(3)}, Prob: 0.5}})
	b := rowsOf([]answer{{Head: []any{float64(3)}, Prob: 0.5 + 1e-13}, {Head: []any{float64(7), "x"}, Prob: 0.25}})
	if !sameRows(a, b, tolerance) {
		t.Error("answers in another order and 1e-13 apart should be the same")
	}
	if sameRows(a, b, 0) {
		t.Error("1e-13 apart is not identical")
	}
	b[0].prob = 0.5 + 1e-11
	if sameRows(a, b, tolerance) {
		t.Error("1e-11 apart should differ")
	}
	b[0].prob = math.NaN()
	if sameRows(a, b, tolerance) {
		t.Error("a NaN equals nothing")
	}
	if sameRows(a, a[:1], tolerance) {
		t.Error("a missing answer should differ")
	}
}
