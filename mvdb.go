// Package mvdb implements probabilistic databases with MarkoViews (Jha &
// Suciu, "Probabilistic Databases with MarkoViews", PVLDB 5(11), 2012).
//
// An MVDB is a probabilistic database — relations whose tuples carry weights
// (odds w = p/(1-p)) — together with MarkoViews: weighted UCQ views that
// declare correlations between the probabilistic tuples. Query evaluation
// translates the MVDB into a tuple-independent database with possibly
// negative tuple probabilities (Theorem 1):
//
//	P(Q) = (P0(Q ∨ W) - P0(W)) / (1 - P0(W))
//
// and computes the right-hand side with exact methods: brute-force
// enumeration, lifted inference, DPLL model counting, OBDD compilation, or the
// MV-index — an augmented OBDD of ¬W precompiled offline so that online
// queries run in time proportional to the slice of the index they touch.
//
// # Quickstart
//
//	db := mvdb.NewDatabase()
//	db.MustCreateRelation("R", false, "x")
//	db.MustCreateRelation("S", false, "x")
//	db.MustInsert("R", 2.0, mvdb.Int(1)) // weight 2 = probability 2/3
//	db.MustInsert("S", 3.0, mvdb.Int(1))
//
//	m := mvdb.New(db)
//	v, _ := mvdb.ParseView("V(x) :- R(x), S(x)", mvdb.ConstWeight(0.5))
//	m.AddView(v) // negative correlation between R(1) and S(1)
//
//	tr, _ := m.Translate(mvdb.TranslateOptions{})
//	ix, _ := mvdb.BuildIndex(tr)
//	q, _ := mvdb.ParseQuery("Q() :- R(x), S(x)")
//	p, _ := ix.ProbBoolean(q.UCQ, mvdb.IntersectOptions{})
//
// The subpackages under internal implement the substrates: the relational
// engine, the UCQ language and analyses, OBDDs with the ConOBDD compiler,
// lifted inference, Markov Logic Networks (exact, Gibbs, MC-SAT), the
// MV-index, and the synthetic DBLP generator driving the paper's
// experiments.
package mvdb

import (
	"io"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/lift"
	"mvdb/internal/lineage"
	"mvdb/internal/mln"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

// Core data-model types.
type (
	// Value is a database value (int64 or string).
	Value = engine.Value
	// Database is an in-memory collection of deterministic and
	// probabilistic relations.
	Database = engine.Database
	// Relation is a named table.
	Relation = engine.Relation
	// MVDB is a probabilistic database with MarkoViews.
	MVDB = core.MVDB
	// MarkoView is a weighted UCQ view declaring correlations.
	MarkoView = core.MarkoView
	// WeightFn assigns a weight to each view output tuple.
	WeightFn = core.WeightFn
	// ViewTuple is a materialized view output tuple.
	ViewTuple = core.ViewTuple
	// Translation is the tuple-independent database of Definition 5 plus
	// the Boolean constraint query W.
	Translation = core.Translation
	// TranslateOptions tunes the MVDB -> INDB translation.
	TranslateOptions = core.TranslateOptions
	// Answer is one query answer with its marginal probability.
	Answer = core.Answer
	// Method selects the P0 evaluation strategy.
	Method = core.Method
	// Query is a named UCQ with head variables.
	Query = ucq.Query
	// UCQ is a union of conjunctive queries.
	UCQ = ucq.UCQ
	// Index is the precompiled MV-index.
	Index = mvindex.Index
	// IntersectOptions selects the online intersection algorithm.
	IntersectOptions = mvindex.IntersectOptions
	// Mutation is one base-table insert, delete or reweight.
	Mutation = core.Mutation
	// WeightTable is a serializable per-head view weight assignment.
	WeightTable = core.WeightTable
	// MaintStats reports how Index.ApplyMutations handled one batch.
	MaintStats = mvindex.MaintStats
)

// Mutation operations for Index.ApplyMutations.
const (
	MutInsert   = core.MutInsert
	MutDelete   = core.MutDelete
	MutReweight = core.MutReweight
)

// Evaluation methods for Translation.ProbBoolean and Translation.Query.
const (
	MethodBruteForce = core.MethodBruteForce
	MethodOBDD       = core.MethodOBDD
	MethodLifted     = core.MethodLifted
	MethodDPLL       = core.MethodDPLL
)

// Deterministic is the weight of a deterministic tuple (+Inf odds).
var Deterministic = engine.Deterministic

// ErrUnsafe is returned by MethodLifted when the query has no safe plan.
var ErrUnsafe = lift.ErrUnsafe

// Int returns an integer Value.
func Int(i int64) Value { return engine.Int(i) }

// Str returns a string Value.
func Str(s string) Value { return engine.Str(s) }

// NewDatabase returns an empty database.
func NewDatabase() *Database { return engine.NewDatabase() }

// New wraps a database as an MVDB without views.
func New(db *Database) *MVDB { return core.New(db) }

// ParseQuery parses a datalog-style query, e.g.
// "Q(x) :- R(x,y), S(y), y > 5". Multiple lines with the same head name form
// a union.
func ParseQuery(src string) (*Query, error) { return ucq.Parse(src) }

// ParseView parses a MarkoView definition "V(x) :- body" with the given
// per-tuple weight function.
func ParseView(src string, w WeightFn) (*MarkoView, error) { return core.ParseView(src, w) }

// ConstWeight returns a WeightFn assigning the same weight to every tuple.
func ConstWeight(w float64) WeightFn { return core.ConstWeight(w) }

// BuildIndex compiles the MV-index for a translation.
func BuildIndex(tr *Translation) (*Index, error) { return mvindex.Build(tr) }

// IsSafe reports whether a UCQ admits a safe (PTIME lifted) plan.
func IsSafe(u UCQ) bool { return lift.IsSafe(u) }

// Synthetic DBLP dataset (the paper's experimental substrate).
type (
	// DBLPConfig parameterizes the synthetic DBLP generator.
	DBLPConfig = dblp.Config
	// DBLPDataset is a generated dataset with the Figure 1 MarkoViews.
	DBLPDataset = dblp.Dataset
)

// GenerateDBLP builds a synthetic DBLP-like dataset (Figure 1 of the
// paper): deterministic Author/Wrote/Pub/HomePage tables, derived
// FirstPub/DBLPAffiliation views, probabilistic Student/Advisor/Affiliation
// tables, and the MarkoViews V1, V2, V3.
func GenerateDBLP(cfg DBLPConfig) (*DBLPDataset, error) { return dblp.Generate(cfg) }

// MCSatOptions configures the MC-SAT sampler baseline.
type MCSatOptions = mln.MCSatOptions

// TopK returns the k highest-probability answers.
func TopK(answers []Answer, k int) []Answer { return core.TopK(answers, k) }

// Conjoin returns the conjunction of two UCQs (for conditional queries).
func Conjoin(a, b UCQ) UCQ { return ucq.Conjoin(a, b) }

// MLN is a ground Markov Logic Network (the Definition 4 semantics of an
// MVDB, as returned by MVDB.GroundMLN). It supports exact enumeration and
// Gibbs and MC-SAT marginal inference.
type MLN = mln.Network

// MLNFeature is a weighted ground formula of an MLN.
type MLNFeature = mln.Feature

// LoadIndex reads a saved MV-index from a file (see Index.SaveFile).
func LoadIndex(path string) (*Index, error) { return mvindex.LoadFile(path) }

// ReadIndex reads a saved MV-index from a stream (see Index.Save).
func ReadIndex(r io.Reader) (*Index, error) { return mvindex.Read(r) }

// MLNFormula is a ground Boolean formula over tuple variables (the feature
// language of MLN).
type MLNFormula = lineage.Formula

// VarFormula returns the formula that is true when tuple variable v is in
// the world — the common single-variable marginal query for MLN inference.
func VarFormula(v int) MLNFormula { return lineage.Var(v) }

// DefineProbTable materializes a probabilistic table from a query over
// deterministic tables with a per-tuple weight function — the middle layer
// of Figure 1 (e.g. Studentp defined from FirstPub with weight
// exp(1-0.15(year-year'))). Offset predicates like "year <= yp + 5" are
// supported by the query language.
func DefineProbTable(db *Database, q *Query, w WeightFn) (int, error) {
	return core.DefineProbTable(db, q, w)
}

// Evidence fixes the truth value of probabilistic tuples (by Boolean
// variable id) for conditional queries via Translation.ProbGivenTuples.
type Evidence = core.Evidence
