package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// datasetSeed is fixed: the server's data never depends on -seed, only the
// requests do.
const datasetSeed = 1

// poolSize is the hot pool of distinct queries; it fits the server's default
// 4096-entry answer cache.
const poolSize = 512

// probeWrites sizes the phase that follows a window without writes, so that
// every workload reports every latency metric: a few seconds' worth, long
// enough that the median does not depend on what else the machine did in one
// instant. The probe that follows a window without reads lasts half a window.
const probeWrites = 60

// readClients is the number of closed-loop read clients, one connection
// each: the machine's two cores, and no more connections than cores.
const readClients = 2

// Open-loop rates of mixed_rw, per second.
const (
	mixedReadRate  = 400
	mixedWriteRate = 5
)

type windowKind int

// readMix is how a workload's read streams draw their next query.
type readMix int

const (
	zipfPool    readMix = iota // Zipf(1.2) over the hot pool
	uniformAll                 // uniform over every point and fan read, with a share of scans
	uniformPool                // uniform over the hot pool
)

const (
	readWindow  windowKind = iota // 2 clients, each sends its next read when the last returned
	writeWindow                   // 1 writer, same rule
	mixedWindow                   // reads and writes on a schedule, one connection each
)

// spec is one named workload. Names are fixed: later issues cite them. Why
// each exists is in BENCHMARK.json and README.md.
type spec struct {
	name         string
	domain       int // -authors of the served dataset
	cacheEntries int // mvdbd -cache-entries; 0 keeps the default (4096)
	window       windowKind
	reads        readMix
	// The answer-cache hit rate over the window must lie in [hitMin, hitMax],
	// or the workload did not load the layers it says it loads.
	hitMin, hitMax float64
}

var specs = []spec{
	{name: "read_hot", domain: 4000, window: readWindow, reads: zipfPool, hitMin: 0.95, hitMax: 1},
	{name: "read_cold", domain: 4000, cacheEntries: 64, window: readWindow, reads: uniformAll, hitMax: 0.05},
	// The pool draws of write_only are the probe after its window.
	{name: "write_only", domain: 2000, window: writeWindow, reads: uniformPool, hitMax: 1},
	// Uniform, not Zipf, so the median read stays clear of the hit/miss cliff.
	{name: "mixed_rw", domain: 2000, window: mixedWindow, reads: uniformPool, hitMax: 1},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Request classes, reported separately.
const (
	classPoint = "point" // advisors of one student
	classFan   = "fan"   // students of one advisor id
	classScan  = "scan"  // students of advisors whose name matches a pattern

	classStructural = "structural" // insert + reweight + delete on Advisor
	classReweight   = "reweight"   // one weight change, no recompile
)

type query struct {
	class string
	text  string
}

// dataset is the key space the requests draw from. Writes touch only the
// reserved students, whose every advisor is a reserved advisor, and reads
// outside the read-back never name a reserved student or advisor; so every
// read has one correct answer for the whole run, whatever the writes did.
type dataset struct {
	domain  int
	queries []query // point reads, then fan reads, then scans, then read-backs
	nPoint  int     // queries[:nPoint] are the point reads
	nFan    int     // queries[nPoint:nPoint+nFan] the fan reads
	nScan   int     // then the scans
	// queries[readBack0:] are the point queries of the reserved students, in
	// the order of reserved.
	readBack0 int
	reserved  []int64
	pool      []int // poolSize indexes into queries: the hot pool
}

// reserveEvery picks the advisors set aside for writes: every reserveEvery-th
// one, skipping the "Madden" advisors the scans select.
const reserveEvery = 6

func newDataset(domain int) (*dataset, error) {
	d, err := dblp.Generate(dblp.Config{NumAuthors: domain, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	madden := map[int64]bool{}
	for _, a := range d.MaddenAdvisors {
		madden[a] = true
	}
	reservedAdv := map[int64]bool{}
	var readAdvisors []int64
	for i, a := range d.Advisors {
		if i%reserveEvery == reserveEvery-1 && !madden[a] {
			reservedAdv[a] = true
		} else {
			readAdvisors = append(readAdvisors, a)
		}
	}
	// A student is reserved when every one of its Advisor tuples names a
	// reserved advisor.
	outside, inside := map[int64]bool{}, map[int64]bool{}
	for _, t := range d.DB.Relation("Advisor").Tuples {
		s, a := t.Vals[0].Int, t.Vals[1].Int
		if reservedAdv[a] {
			inside[s] = true
		} else {
			outside[s] = true
		}
	}
	ds := &dataset{domain: domain}
	var readStudents []int64
	for _, s := range d.Students {
		if inside[s] && !outside[s] {
			ds.reserved = append(ds.reserved, s)
		} else {
			readStudents = append(readStudents, s)
		}
	}
	if len(ds.reserved) < 3 || len(readAdvisors) < poolSize/4 || len(readStudents) < poolSize {
		return nil, fmt.Errorf("benchmark: domain %d is too small: %d reserved students, %d read advisors, %d read students",
			domain, len(ds.reserved), len(readAdvisors), len(readStudents))
	}

	for _, s := range readStudents {
		ds.queries = append(ds.queries, query{classPoint, dblp.QueryAdvisorOfStudent(s).String()})
	}
	ds.nPoint = len(ds.queries)
	for _, a := range readAdvisors {
		ds.queries = append(ds.queries, query{classFan, dblp.QueryStudentsOfAdvisorID(a).String()})
	}
	ds.nFan = len(readAdvisors)
	// "%Madden%" and one pattern per leading digit of a Madden advisor's id
	// (names read "S. Madden <id>"), so no scan is empty.
	patterns := []string{"%Madden%"}
	for digit := '1'; digit <= '9'; digit++ {
		for _, a := range d.MaddenAdvisors {
			if strings.HasPrefix(fmt.Sprint(a), string(digit)) {
				patterns = append(patterns, fmt.Sprintf("%%Madden %c%%", digit))
				break
			}
		}
	}
	for _, p := range patterns {
		ds.queries = append(ds.queries, query{classScan, dblp.QueryStudentsOfAdvisor(p).String()})
	}
	ds.nScan = len(patterns)
	ds.readBack0 = len(ds.queries)
	for _, s := range ds.reserved {
		ds.queries = append(ds.queries, query{classPoint, dblp.QueryAdvisorOfStudent(s).String()})
	}
	for _, q := range ds.queries {
		if _, err := ucq.Parse(q.text); err != nil {
			return nil, fmt.Errorf("benchmark: query %q does not parse back: %w", q.text, err)
		}
	}

	// The hot pool is three point queries to one fan query, each kind spread
	// evenly over its id list: the mix of internal/bench/cache.go with fewer
	// fans, because a domain of 2000 has only ~200 unreserved advisors.
	const fans = poolSize / 4
	for i := 0; i < poolSize; i++ {
		if isFanSlot(i) {
			ds.pool = append(ds.pool, ds.nPoint+(i/4)*ds.nFan/fans)
		} else {
			ds.pool = append(ds.pool, (i-i/4)*ds.nPoint/(poolSize-fans))
		}
	}
	return ds, nil
}

// isFanSlot says which slots of the hot pool hold fan queries: every fourth,
// and not the first three, which under Zipf(1.2) draw 40 % of read_hot.
func isFanSlot(i int) bool { return i%4 == 3 }

// mutation is the wire form of one mutation, as POST /update takes it.
type mutation struct {
	Op     string  `json:"op"`
	Rel    string  `json:"rel"`
	Vals   []int64 `json:"vals"`
	Weight float64 `json:"weight,omitempty"`
}

// writeOp is one request of the write stream: a structural batch for
// /update, or a single mutation for /reweight.
type writeOp struct {
	class string
	muts  []mutation
}

// core converts the op to the batch the server applies for it.
func (w writeOp) core() []core.Mutation {
	out := make([]core.Mutation, len(w.muts))
	for i, m := range w.muts {
		vals := make([]engine.Value, len(m.Vals))
		for j, v := range m.Vals {
			vals[j] = engine.Int(v)
		}
		out[i] = core.Mutation{Op: core.MutationOp(m.Op), Rel: m.Rel, Vals: vals, Weight: m.Weight}
	}
	return out
}

// generator turns (workload, dataset, seed) into request streams. It holds
// no clock and no connection: the same three inputs give the same streams.
type generator struct {
	sp   spec
	ds   *dataset
	seed int64

	rank     []int   // read_hot: Zipf rank -> query index, a seeded shuffle of the pool
	students []int64 // the reserved students in seeded order
	// One read stream per client, so what a client sends does not depend on
	// how fast the other ran.
	reads    [readClients]*readStream
	writeRng *rand.Rand
	writes   []writeOp // the write stream generated so far
	nStruct  int       // structural batches among writes
}

type readStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGenerator(sp spec, ds *dataset, seed int64) *generator {
	g := &generator{sp: sp, ds: ds, seed: seed}
	shuffle := rand.New(rand.NewSource(seed))
	// The seed picks which student or advisor sits at each Zipf rank, but a
	// rank keeps its class: a fan answer is several times a point answer, and
	// a seed that drew one into the top ranks would be another workload.
	g.rank = append([]int(nil), ds.pool...)
	perm := shuffle.Perm(poolSize / 4)
	for i := range g.rank {
		if isFanSlot(i) {
			g.rank[i] = ds.pool[4*perm[i/4]+3]
		}
	}
	points := shuffle.Perm(poolSize - poolSize/4)
	for i, n := 0, 0; i < poolSize; i++ {
		if !isFanSlot(i) {
			j := points[n]
			g.rank[i] = ds.pool[j+j/3]
			n++
		}
	}
	g.students = append([]int64(nil), ds.reserved...)
	shuffle.Shuffle(len(g.students), func(i, j int) { g.students[i], g.students[j] = g.students[j], g.students[i] })
	g.writeRng = rand.New(rand.NewSource(seed ^ 0x5eed))
	for c := range g.reads {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		g.reads[c] = &readStream{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(poolSize-1))}
	}
	return g
}

// scanShare is the share of read_cold's requests that are scans.
const scanShare = 0.05

// read draws the next query index of read stream c.
func (g *generator) read(c int) int {
	s := g.reads[c]
	switch g.sp.reads {
	case zipfPool:
		return g.rank[s.zipf.Uint64()]
	case uniformAll:
		if s.rng.Float64() < scanShare {
			return g.ds.nPoint + g.ds.nFan + s.rng.Intn(g.ds.nScan)
		}
		return s.rng.Intn(g.ds.nPoint + g.ds.nFan)
	default:
		return g.ds.pool[s.rng.Intn(poolSize)]
	}
}

// advisorID is the fresh advisor structural batch j inserts: far outside the
// author domain, so an insert never collides with a generated tuple.
func advisorID(j int) int64 { return int64(1_000_000 + j) }

// write returns request k of the write stream. Four of five are structural
// batches shaped like batchFor in internal/bench/update.go: batch j inserts a
// fresh advisor for student j, reweights the tuple batch j-1 inserted and
// deletes the one batch j-2 inserted. Every fifth is a lone reweight of the
// newest inserted tuple, the weight-only path. Request 0 is structural: it is
// the warm-up whose full compile creates the block record.
func (g *generator) write(k int) writeOp {
	for len(g.writes) <= k {
		i := len(g.writes)
		student := func(j int) int64 { return g.students[j%len(g.students)] }
		weight := func() float64 { return 0.5 + 2*g.writeRng.Float64() }
		if i%5 == 4 {
			j := g.nStruct - 1
			g.writes = append(g.writes, writeOp{class: classReweight, muts: []mutation{
				{Op: "reweight", Rel: "Advisor", Vals: []int64{student(j), advisorID(j)}, Weight: weight()},
			}})
			continue
		}
		j := g.nStruct
		g.nStruct++
		muts := []mutation{{Op: "insert", Rel: "Advisor", Vals: []int64{student(j), advisorID(j)}, Weight: weight()}}
		if j >= 1 {
			muts = append(muts, mutation{Op: "reweight", Rel: "Advisor", Vals: []int64{student(j - 1), advisorID(j - 1)}, Weight: weight()})
		}
		if j >= 2 {
			muts = append(muts, mutation{Op: "delete", Rel: "Advisor", Vals: []int64{student(j - 2), advisorID(j - 2)}})
		}
		g.writes = append(g.writes, writeOp{class: classStructural, muts: muts})
	}
	return g.writes[k]
}
