// Command mvdb loads the synthetic DBLP MVDB (Figure 1 of the paper),
// compiles the MV-index, and evaluates datalog-style queries against it.
//
// One-shot:
//
//	mvdb -authors 2000 "Q(aid) :- Student(aid,y), Advisor(aid,a), Author(a,n), n like '%Madden%'"
//
// Interactive (reads one query per line from stdin):
//
//	mvdb -authors 2000 -i
//	> Q(a) :- Advisor(104,a)
//	> \tables
//	> \quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

type session struct {
	data *dblp.Dataset
	tr   *core.Translation
	ix   *mvindex.Index
	ev   *baseline.Evaluator // the obdd, lifted and dpll methods
	meth string
}

func main() {
	var (
		authors     = flag.Int("authors", 2000, "aid domain of the synthetic DBLP dataset")
		seed        = flag.Int64("seed", 1, "generator seed")
		views       = flag.String("views", "123", "MarkoViews to enable: any subset of 123")
		method      = flag.String("method", "index", "evaluation method: index, index-cc, obdd, lifted, dpll")
		interactive = flag.Bool("i", false, "interactive mode (read queries from stdin)")
		saveIndex   = flag.String("save-index", "", "write the compiled MV-index to this file and continue")
		loadIndex   = flag.String("load-index", "", "load a previously saved MV-index instead of generating data")

		reorder          = flag.String("reorder", "off", "dynamic variable reordering after compile: off | once | converge")
		reorderMaxGrowth = flag.Float64("reorder-max-growth", obdd.DefaultMaxGrowth, "sifting growth bound (times the pre-sift node count)")
		reorderRounds    = flag.Int("reorder-rounds", obdd.DefaultMaxRounds, "max sifting rounds in converge mode")
	)
	flag.Parse()

	reorderMode, merr := obdd.ParseReorderMode(*reorder)
	if merr != nil {
		fatal(merr)
	}
	reorderOpts := obdd.ReorderOptions{Mode: reorderMode, MaxGrowth: *reorderMaxGrowth, MaxRounds: *reorderRounds}

	t0 := time.Now()
	var (
		data *dblp.Dataset
		sel  []*core.MarkoView
		tr   *core.Translation
		ix   *mvindex.Index
		err  error
	)
	if *loadIndex != "" {
		fmt.Fprintf(os.Stderr, "loading MV-index from %s...\n", *loadIndex)
		ix, err = mvindex.LoadFile(*loadIndex)
		if err != nil {
			fatal(err)
		}
		tr = ix.Translation()
		if reorderMode != obdd.ReorderOff && !ix.Reordered() {
			if st, serr := ix.Sift(reorderOpts); serr != nil {
				fatal(serr)
			} else if st.NodesBefore > 0 {
				fmt.Fprintf(os.Stderr, "reordered: %d -> %d nodes in %v\n",
					st.NodesBefore, st.NodesAfter, st.Duration.Round(time.Millisecond))
			}
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating synthetic DBLP (%d authors, views %s)...\n", *authors, *views)
		data, err = dblp.Generate(dblp.Config{NumAuthors: *authors, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		for _, c := range *views {
			switch c {
			case '1':
				sel = append(sel, data.V1)
			case '2':
				sel = append(sel, data.V2)
			case '3':
				sel = append(sel, data.V3)
			default:
				fatal(fmt.Errorf("unknown view %q", string(c)))
			}
		}
		m, err := data.MVDB(sel...)
		if err != nil {
			fatal(err)
		}
		tr, err = m.Translate(core.TranslateOptions{})
		if err != nil {
			fatal(err)
		}
		tr.Reorder = reorderOpts
		ix, err = mvindex.Build(tr)
		if err != nil {
			fatal(err)
		}
	}
	if *saveIndex != "" {
		if err := ix.SaveFile(*saveIndex); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "MV-index saved to %s\n", *saveIndex)
	}
	fmt.Fprintf(os.Stderr, "ready in %v: %d tuple variables, MV-index %d nodes in %d blocks\n",
		time.Since(t0).Round(time.Millisecond), tr.DB.NumVars(), ix.Size(), ix.Blocks())

	s := &session{data: data, tr: tr, ix: ix, ev: baseline.New(tr), meth: *method}
	if args := flag.Args(); len(args) > 0 {
		for _, src := range args {
			if err := s.runQuery(src); err != nil {
				fatal(err)
			}
		}
		return
	}
	if !*interactive {
		fmt.Fprintln(os.Stderr, "no query given; pass a query argument or -i for interactive mode")
		os.Exit(2)
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			s.printTables()
		case line == `\views`:
			for _, v := range sel {
				fmt.Printf("%s: %s\n", v.Name, v.Def.String())
			}
		case line == `\stats`:
			fmt.Printf("index: %d nodes, %d blocks, P0(W)=%.6f\n", s.ix.Size(), s.ix.Blocks(), 1-s.ix.ProbNotW())
			if ri := s.ix.ReorderInfo(); ri != nil {
				fmt.Printf("reorder: %s (%s), %d -> %d nodes, %d rounds, %d swaps, %.1fms, %d delta reuses\n",
					ri.Mode, ri.Provenance, ri.NodesBefore, ri.NodesAfter, ri.Rounds, ri.Swaps, ri.SiftMillis, ri.DeltaReuses)
			}
		case strings.HasPrefix(line, `\explain `):
			if err := s.explain(strings.TrimPrefix(line, `\explain `)); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case strings.HasPrefix(line, `\marginal `):
			if err := s.marginal(strings.TrimPrefix(line, `\marginal `)); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case strings.HasPrefix(line, `\dot`):
			if err := s.dot(strings.TrimSpace(strings.TrimPrefix(line, `\dot`))); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case line == `\help`:
			fmt.Println(`enter a query like "Q(a) :- Advisor(104,a)", or:
  \tables            relation inventory
  \views             active MarkoViews
  \stats             index and compile statistics
  \explain <query>   traversal statistics for one Boolean query
  \marginal Rel(v,..) corrected marginal of one probabilistic tuple
  \dot [file]        write the ¬W OBDD as Graphviz DOT (default stdout)
  \quit`)
		default:
			if err := s.runQuery(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		fmt.Print("> ")
	}
}

func (s *session) runQuery(src string) error {
	q, err := ucq.Parse(src)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var rows []core.Answer
	switch s.meth {
	case "index":
		rows, err = s.ix.Query(q, mvindex.IntersectOptions{})
	case "index-cc":
		rows, err = s.ix.Query(q, mvindex.IntersectOptions{CacheConscious: true})
	case "obdd":
		rows, err = s.ev.Query(q, baseline.OBDD)
	case "lifted":
		rows, err = s.ev.Query(q, baseline.Lifted)
	case "dpll":
		rows, err = s.ev.Query(q, baseline.DPLL)
	default:
		return fmt.Errorf("unknown method %q", s.meth)
	}
	if err != nil {
		return err
	}
	el := time.Since(t0)
	for _, r := range rows {
		parts := make([]string, len(r.Head))
		for i, v := range r.Head {
			parts[i] = v.String()
		}
		fmt.Printf("%-40s %.6f\n", strings.Join(parts, ", "), r.Prob)
	}
	fmt.Printf("-- %d answers in %v (%s)\n", len(rows), el.Round(time.Microsecond), s.meth)
	return nil
}

// explain prints intersection statistics for a Boolean query.
func (s *session) explain(src string) error {
	q, err := ucq.Parse(src)
	if err != nil {
		return err
	}
	b := ucq.UCQ{Disjuncts: q.Disjuncts}
	ex, err := s.ix.ExplainBoolean(b, mvindex.IntersectOptions{})
	if err != nil {
		return err
	}
	fmt.Println(ex)
	return nil
}

// marginal prints the corrected marginal of one tuple, given as an atom
// with constant arguments, e.g. "Advisor(9,40)".
func (s *session) marginal(src string) error {
	q, err := ucq.Parse("M() :- " + strings.TrimSpace(src))
	if err != nil {
		return err
	}
	if len(q.Disjuncts) != 1 || len(q.Disjuncts[0].Atoms) != 1 {
		return fmt.Errorf("expected a single atom like Advisor(9,40)")
	}
	a := q.Disjuncts[0].Atoms[0]
	rel := s.tr.DB.Relation(a.Rel)
	if rel == nil {
		return fmt.Errorf("unknown relation %s", a.Rel)
	}
	vals := make([]engine.Value, len(a.Args))
	for i, t := range a.Args {
		if !t.IsConst {
			return fmt.Errorf("argument %d must be a constant", i+1)
		}
		vals[i] = t.Const
	}
	ti := rel.Lookup(vals)
	if ti < 0 {
		return fmt.Errorf("tuple not found")
	}
	tup := rel.Tuples[ti]
	if tup.Var == 0 {
		fmt.Println("deterministic tuple: probability 1")
		return nil
	}
	p, err := s.ix.TupleMarginal(tup.Var, mvindex.IntersectOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("prior %.6f -> corrected marginal %.6f\n", tup.Prob(), p)
	return nil
}

// dot writes the ¬W OBDD in Graphviz format, compiled under the index's
// variable order (the learned one after a sift).
func (s *session) dot(path string) error {
	m, fW, _, err := s.tr.CompileW(obdd.CompileOptions{Order: s.ix.Manager().Order()})
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return m.WriteDot(out, m.Not(fW), "notW", nil)
}

func (s *session) printTables() {
	for _, st := range s.tr.DB.Stats() {
		kind := "prob"
		if st.Deterministic {
			kind = "det "
		}
		fmt.Printf("%-20s %s %8d tuples\n", st.Relation, kind, st.Tuples)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mvdb:", err)
	os.Exit(1)
}
