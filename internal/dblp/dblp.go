// Package dblp generates a synthetic DBLP-like dataset reproducing the
// structure of Figure 1 of the paper: the deterministic base tables
// (Author, Wrote, Pub, HomePage), the derived views (FirstPub,
// DBLPAffiliation), the probabilistic tables (Studentp, Advisorp,
// Affiliationp) with the paper's weight formulas, and the MarkoViews V1,
// V2, V3.
//
// The real DBLP dump is proprietary-sized (1M authors); the generator is
// seeded and scales with the aid domain, the knob the paper's experiments
// sweep (Section 5.1-5.3). The co-authorship structure is synthetic but
// preserves what the experiments measure: advisor-student co-publication
// clusters during the student years, occasional second advisor candidates
// (so V2 is non-empty), shared-institute collaboration clusters (so V3 is
// non-empty), and a family of similarly-named "Madden" advisors for the
// running example of Figure 2.
package dblp

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// Config parameterizes the generator.
type Config struct {
	// NumAuthors is the aid domain size (the x-axis of Figures 4-8).
	NumAuthors int
	// Seed makes generation deterministic.
	Seed int64
	// AdvisorEvery: author i is an advisor when i % AdvisorEvery == 0
	// (default 8).
	AdvisorEvery int
	// SecondAdvisorPct is the percentage of students with a second advisor
	// candidate (default 20) — these populate V2.
	SecondAdvisorPct int
	// MaddenEvery: every MaddenEvery-th advisor is named "... Madden ..."
	// (default 40), giving the paper's "48 similarly named advisors" shape
	// at large scales.
	MaddenEvery int
	// Institutes is the number of distinct affiliations (default
	// max(2, NumAuthors/500)).
	Institutes int
	// V3CountThreshold replaces the paper's count(pid) > 30 filter; the
	// synthetic co-authorship graph is sparser than real DBLP, so the
	// default is 4 (documented substitution).
	V3CountThreshold int
	// ZipfAdvisors skews advisor popularity like real co-authorship graphs:
	// students pick advisors with probability ∝ 1/rank^1.1 instead of
	// uniformly. Off by default to keep blocks evenly sized.
	ZipfAdvisors bool
}

func (c Config) withDefaults() Config {
	if c.NumAuthors <= 0 {
		c.NumAuthors = 1000
	}
	if c.AdvisorEvery <= 0 {
		c.AdvisorEvery = 8
	}
	if c.SecondAdvisorPct <= 0 {
		c.SecondAdvisorPct = 20
	}
	if c.MaddenEvery <= 0 {
		c.MaddenEvery = 40
	}
	if c.Institutes <= 0 {
		c.Institutes = c.NumAuthors / 500
		if c.Institutes < 2 {
			c.Institutes = 2
		}
	}
	if c.V3CountThreshold <= 0 {
		c.V3CountThreshold = 4
	}
	return c
}

// Dataset is the generated database plus the Fig. 1 MarkoViews and handles
// used by the experiments.
type Dataset struct {
	Config Config
	DB     *engine.Database

	V1, V2, V3 *core.MarkoView

	Advisors       []int64
	Students       []int64
	MaddenAdvisors []int64
	StudentAdvisor map[int64]int64 // primary advisor of each student

	copubStudy map[[2]int64]int // (student, advisor) -> co-pubs during study
	copubV3    map[[2]int64]int // (a1, a2) -> recent co-pubs above threshold
}

// MVDB assembles an MVDB over the dataset with the given views (defaults to
// V1, V2, V3 when none are named). Passing a subset mirrors Section 5.1,
// which uses only V1 and V2 for the Alchemy comparison.
func (d *Dataset) MVDB(views ...*core.MarkoView) (*core.MVDB, error) {
	m := core.New(d.DB)
	if len(views) == 0 {
		views = []*core.MarkoView{d.V1, d.V2, d.V3}
	}
	for _, v := range views {
		if v == nil {
			continue
		}
		if err := m.AddView(v); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Generate builds the dataset.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDatabase()
	db.MustCreateRelation("Author", true, "aid", "name")
	db.MustCreateRelation("Wrote", true, "aid", "pid")
	db.MustCreateRelation("Pub", true, "pid", "title", "year")
	db.MustCreateRelation("HomePage", true, "aid", "url")
	db.MustCreateRelation("FirstPub", true, "aid", "year")
	db.MustCreateRelation("DBLPAffiliation", true, "aid", "inst")
	db.MustCreateRelation("CoPubV3", true, "aid1", "aid2") // footnote 3: materialized count(pid) > T filter
	db.MustCreateRelation("Student", false, "aid", "year")
	db.MustCreateRelation("Advisor", false, "aid1", "aid2")
	db.MustCreateRelation("Affiliation", false, "aid", "inst")

	d := &Dataset{
		Config:         cfg,
		DB:             db,
		StudentAdvisor: map[int64]int64{},
		copubStudy:     map[[2]int64]int{},
		copubV3:        map[[2]int64]int{},
	}

	n := int64(cfg.NumAuthors)
	firstPub := map[int64]int64{}
	advisorInst := map[int64]int64{}
	var pid int64

	// Authors: advisors are senior (early first publication).
	advisorIdx := 0
	for aid := int64(1); aid <= n; aid++ {
		isAdvisor := aid%int64(cfg.AdvisorEvery) == 0
		var name string
		if isAdvisor {
			advisorIdx++
			if advisorIdx%cfg.MaddenEvery == 0 {
				name = fmt.Sprintf("S. Madden %d", aid)
				d.MaddenAdvisors = append(d.MaddenAdvisors, aid)
			} else {
				name = fmt.Sprintf("Prof. Author %d", aid)
			}
			d.Advisors = append(d.Advisors, aid)
			firstPub[aid] = 1985 + rng.Int63n(10)
			inst := 1 + rng.Int63n(int64(cfg.Institutes))
			advisorInst[aid] = inst
			db.MustInsertDet("HomePage", engine.Int(aid), engine.Str(fmt.Sprintf("http://u%d.edu/~a%d", inst, aid)))
			db.MustInsertDet("DBLPAffiliation", engine.Int(aid), engine.Str(instName(inst)))
		} else {
			name = fmt.Sprintf("Author %d", aid)
			d.Students = append(d.Students, aid)
			firstPub[aid] = 2000 + rng.Int63n(10)
		}
		db.MustInsertDet("Author", engine.Int(aid), engine.Str(name))
	}
	if len(d.Advisors) == 0 {
		return nil, fmt.Errorf("dblp: no advisors generated (NumAuthors=%d too small)", cfg.NumAuthors)
	}

	wrote := map[[2]int64]bool{}
	addPub := func(year int64, authors ...int64) {
		pid++
		db.MustInsertDet("Pub", engine.Int(pid), engine.Str(fmt.Sprintf("Paper %d", pid)), engine.Int(year))
		for _, a := range authors {
			if !wrote[[2]int64{a, pid}] {
				wrote[[2]int64{a, pid}] = true
				db.MustInsertDet("Wrote", engine.Int(a), engine.Int(pid))
			}
		}
	}

	// Student-advisor co-publication clusters. Advisor choice is uniform by
	// default, Zipf-distributed when configured.
	pickAdvisor := func() int64 { return d.Advisors[rng.Intn(len(d.Advisors))] }
	if cfg.ZipfAdvisors && len(d.Advisors) > 1 {
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(d.Advisors)-1))
		pickAdvisor = func() int64 { return d.Advisors[z.Uint64()] }
	}
	for _, s := range d.Students {
		adv := pickAdvisor()
		d.StudentAdvisor[s] = adv
		y0 := firstPub[s]
		k := 3 + rng.Intn(3) // >2 co-pubs, required by the Advisorp rule
		for i := 0; i < k; i++ {
			addPub(y0+rng.Int63n(4), s, adv)
			d.copubStudy[[2]int64{s, adv}]++
		}
		if rng.Intn(100) < cfg.SecondAdvisorPct && len(d.Advisors) > 1 {
			adv2 := pickAdvisor()
			for adv2 == adv {
				adv2 = pickAdvisor()
			}
			k2 := 3 + rng.Intn(2)
			for i := 0; i < k2; i++ {
				addPub(y0+rng.Int63n(4), s, adv2)
				d.copubStudy[[2]int64{s, adv2}]++
			}
		}
		// A solo noise paper.
		if rng.Intn(3) == 0 {
			addPub(y0+rng.Int63n(6), s)
		}
	}

	// Recent collaboration clusters between students sharing an advisor's
	// institute: populate Affiliationp and V3.
	recentCopub := map[[2]int64]int{}
	affCount := map[[2]int64]int{} // (student, inst) -> recent co-pubs with that inst
	for i := 0; i+1 < len(d.Students); i += 7 {
		s1, s2 := d.Students[i], d.Students[i+1]
		adv := d.StudentAdvisor[s1]
		k := cfg.V3CountThreshold + 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			year := int64(2006) + rng.Int63n(8)
			addPub(year, s1, s2, adv)
			recentCopub[pairKey(s1, s2)]++
			affCount[[2]int64{s1, advisorInst[adv]}]++
			affCount[[2]int64{s2, advisorInst[adv]}]++
		}
	}

	// FirstPub derived view.
	for aid := int64(1); aid <= n; aid++ {
		db.MustInsertDet("FirstPub", engine.Int(aid), engine.Int(firstPub[aid]))
	}

	// Studentp: a student in the years around the first publication, weight
	// exp(1 - 0.15 (year - year')).
	for _, s := range d.Students {
		y0 := firstPub[s]
		for dy := int64(-1); dy <= 4; dy++ {
			w := math.Exp(1 - 0.15*float64(dy))
			db.MustInsert("Student", w, engine.Int(s), engine.Int(y0+dy))
		}
	}

	// Advisorp: pairs with more than 2 co-publications during the student
	// years, weight exp(0.25 count).
	for _, pair := range sortedPairs(d.copubStudy) {
		c := d.copubStudy[pair]
		if c <= 2 {
			continue
		}
		w := math.Exp(0.25 * float64(c))
		db.MustInsert("Advisor", w, engine.Int(pair[0]), engine.Int(pair[1]))
	}

	// Affiliationp: inferred affiliations for authors without a
	// DBLPAffiliation, weight exp(0.1 count).
	for _, key := range sortedPairs(affCount) {
		c := affCount[key]
		if c == 0 {
			continue
		}
		w := math.Exp(0.1 * float64(c))
		db.MustInsert("Affiliation", w, engine.Int(key[0]), engine.Str(instName(key[1])))
	}

	// CoPubV3: the footnote-3 materialization of "count(pid) > T over recent
	// co-publications" used in V3's body.
	for _, pair := range sortedPairs(recentCopub) {
		if c := recentCopub[pair]; c > cfg.V3CountThreshold {
			db.MustInsertDet("CoPubV3", engine.Int(pair[0]), engine.Int(pair[1]))
			d.copubV3[pair] = c
		}
	}

	d.buildViews(affCount)
	return d, nil
}

// buildViews attaches the Fig. 1 MarkoViews with serializable WeightTables,
// which survive snapshot/restore as the live-update write path requires. The
// tables are filled from the generator's own bookkeeping rather than by
// evaluating the view bodies — the translation materializes the views once,
// and a second materialization here only to read off the heads would double
// that cost. The heads are the same by construction (TestViewWeightTables
// checks it against Materialize):
//   - V1: every Advisor pair (a copubStudy pair with more than two co-pubs);
//     its co-pubs all fall inside the student's Student years.
//   - V3: every CoPubV3 pair, once per institute both authors have an
//     Affiliation tuple for.
//
// The Default of 1 applies only to heads first materialized by live
// mutations — weight 1 means unconstrained (the translation prunes such
// tuples), the conservative reading for pairs with no recorded co-pub counts.
// V2 is a pure denial view: every head, present or future, weighs 0.
func (d *Dataset) buildViews(affCount map[[2]int64]int) {
	v1 := &core.WeightTable{Default: 1}
	for pair, c := range d.copubStudy {
		if c <= 2 {
			continue // not an Advisor tuple
		}
		v1.Set([]engine.Value{engine.Int(pair[0]), engine.Int(pair[1])}, float64(c)/2)
	}
	insts := map[int64][]int64{} // author -> institutes of its Affiliation tuples
	for key := range affCount {
		insts[key[0]] = append(insts[key[0]], key[1])
	}
	v3 := &core.WeightTable{Default: 1}
	for pair, c := range d.copubV3 {
		for _, inst := range insts[pair[0]] {
			if affCount[[2]int64{pair[1], inst}] > 0 {
				v3.Set([]engine.Value{engine.Int(pair[0]), engine.Int(pair[1]), engine.Str(instName(inst))}, float64(c)/5)
			}
		}
	}
	view := func(def string, wt *core.WeightTable) *core.MarkoView {
		q := ucq.MustParse(def)
		return &core.MarkoView{Name: q.Name, Head: q.Head, Def: q.UCQ, Weights: wt}
	}
	// V1(aid1,aid2)[count(pid)/2] :- Advisor(aid1,aid2), Student(aid1,year),
	// Wrote(aid1,pid), Wrote(aid2,pid), Pub(pid,title,year).
	d.V1 = view("V1(aid1,aid2) :- Advisor(aid1,aid2), Student(aid1,year), Wrote(aid1,pid), Wrote(aid2,pid), Pub(pid,title,year)", v1)
	// V2(aid1,aid2,aid3)[0] :- Advisor(aid1,aid2), Advisor(aid1,aid3),
	// aid2 <> aid3 — the denial view "a person has only one advisor".
	d.V2 = view("V2(aid1,aid2,aid3) :- Advisor(aid1,aid2), Advisor(aid1,aid3), aid2 <> aid3", &core.WeightTable{Default: 0})
	// V3(aid1,aid2,inst)[count(pid)/5] :- Affiliation(aid1,inst),
	// Affiliation(aid2,inst), CoPubV3(aid1,aid2) — where CoPubV3 is the
	// materialized recent-co-publication filter.
	d.V3 = view("V3(aid1,aid2,inst) :- Affiliation(aid1,inst), Affiliation(aid2,inst), CoPubV3(aid1,aid2)", v3)
}

func instName(i int64) string { return fmt.Sprintf("u%d.edu", i) }

// sortedPairs returns the keys of a pair-keyed count map in ascending
// order, so tuples inserted from it get the same positions and variable ids
// on every run.
func sortedPairs(m map[[2]int64]int) [][2]int64 {
	keys := make([][2]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return keys
}

func pairKey(a, b int64) [2]int64 {
	if a > b {
		a, b = b, a
	}
	return [2]int64{a, b}
}

// QueryStudentsOfAdvisor is the running example of Figure 2: all students
// advised by an author whose name matches the pattern.
func QueryStudentsOfAdvisor(namePattern string) *ucq.Query {
	return ucq.MustParse(fmt.Sprintf(
		"Q(aid) :- Student(aid,year), Advisor(aid,a), Author(a,n), n like '%s'", namePattern))
}

// QueryStudentsOfAdvisorID returns the students of one advisor by id
// (Figure 6/10 workload).
func QueryStudentsOfAdvisorID(advisor int64) *ucq.Query {
	return ucq.MustParse(fmt.Sprintf("Q(aid) :- Student(aid,year), Advisor(aid,%d)", advisor))
}

// QueryAdvisorOfStudent returns the advisors of one student (Figure 5
// workload).
func QueryAdvisorOfStudent(student int64) *ucq.Query {
	return ucq.MustParse(fmt.Sprintf("Q(a) :- Student(%d,year), Advisor(%d,a)", student, student))
}

// QueryAffiliationOfAuthor returns the inferred affiliations of one author
// (Figure 11 workload).
func QueryAffiliationOfAuthor(aid int64) *ucq.Query {
	return ucq.MustParse(fmt.Sprintf("Q(inst) :- Affiliation(%d,inst)", aid))
}
