// Package bench contains one runner per table and figure of the paper's
// evaluation (Section 5). Each runner regenerates the same rows or series
// the paper reports, on the synthetic DBLP dataset; cmd/mvbench prints them
// and the root-level Go benchmarks wrap them.
//
// Absolute times differ from the paper's 2008-era hardware; the shapes the
// runners (and EXPERIMENTS.md) verify are: lineage grows linearly (Fig. 4),
// the MV-index answers in roughly constant time while MLN sampling grows
// (Figs. 5-6), OBDD size is linear in the domain (Fig. 7), concatenation
// beats synthesis by orders of magnitude at identical output (Fig. 8),
// CC-MVIntersect beats MVIntersect by a constant factor (Fig. 9), and all
// full-dataset queries answer in milliseconds (Figs. 10-11).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
)

// Options configures the experiment sweeps.
type Options struct {
	// Domains is the aid-domain sweep of Figures 4-9 (paper: 1000..10000).
	Domains []int
	// FullAuthors is the "entire dataset" size of Figures 10-11 and the
	// running example (the paper used the full 1M-author DBLP; see DESIGN.md
	// for the scale substitution).
	FullAuthors int
	// Seed drives the deterministic generator.
	Seed int64
	// MCSatBurn and MCSatSamples bound the Alchemy-style sampler of
	// Figures 5-6.
	MCSatBurn, MCSatSamples int
	// Queries is the number of per-query measurements in Figures 10-11.
	Queries int
	// Cache enables the cached leg of the cache experiment; false runs the
	// baseline-only ablation.
	Cache bool
	// CacheRequests and CacheDistinct shape the cache experiment's Zipf mix:
	// CacheRequests total requests over CacheDistinct distinct queries.
	CacheRequests, CacheDistinct int
	// ReorderMaxGrowth and ReorderRounds tune the sifting pass of the
	// reorder experiment (0 = obdd defaults).
	ReorderMaxGrowth float64
	ReorderRounds    int
}

// Defaults returns the sweep the paper ran: domains 1000..10000 and a large
// "full" dataset.
func Defaults() Options {
	var domains []int
	for d := 1000; d <= 10000; d += 1000 {
		domains = append(domains, d)
	}
	return Options{
		Domains:       domains,
		FullAuthors:   20000,
		Seed:          1,
		MCSatBurn:     50,
		MCSatSamples:  150,
		Queries:       10,
		Cache:         true,
		CacheRequests: 300,
		CacheDistinct: 24,
	}
}

// Small returns a fast configuration for tests and Go benchmarks.
func Small() Options {
	return Options{
		Domains:       []int{200, 400, 600},
		FullAuthors:   1500,
		Seed:          1,
		MCSatBurn:     10,
		MCSatSamples:  30,
		Queries:       5,
		Cache:         true,
		CacheRequests: 80,
		CacheDistinct: 8,
	}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if len(o.Domains) == 0 {
		o.Domains = d.Domains
	}
	if o.FullAuthors == 0 {
		o.FullAuthors = d.FullAuthors
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.MCSatBurn == 0 {
		o.MCSatBurn = d.MCSatBurn
	}
	if o.MCSatSamples == 0 {
		o.MCSatSamples = d.MCSatSamples
	}
	if o.Queries == 0 {
		o.Queries = d.Queries
	}
	if o.CacheRequests == 0 {
		o.CacheRequests = d.CacheRequests
	}
	if o.CacheDistinct == 0 {
		o.CacheDistinct = d.CacheDistinct
	}
	return o
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string

	// Series holds the numeric columns keyed by column name, for
	// programmatic shape checks.
	Series map[string][]float64
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// FprintCSV renders the table as CSV (header + rows).
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (t *Table) addSeries(col string, v float64) {
	if t.Series == nil {
		t.Series = map[string][]float64{}
	}
	t.Series[col] = append(t.Series[col], v)
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }

func ratio(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", base.Seconds()/other.Seconds())
}

// pipeline builds dataset → MVDB → translation for a domain size and view
// subset ("12" = V1+V2, "123" = all, "2" = V2 only).
func pipeline(n int, seed int64, views string) (*dblp.Dataset, *core.MVDB, *core.Translation, error) {
	d, err := dblp.Generate(dblp.Config{NumAuthors: n, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	var sel []*core.MarkoView
	for _, c := range views {
		switch c {
		case '1':
			sel = append(sel, d.V1)
		case '2':
			sel = append(sel, d.V2)
		case '3':
			sel = append(sel, d.V3)
		}
	}
	m, err := d.MVDB(sel...)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	return d, m, tr, nil
}

// buildIndex compiles the MV-index (forcing W's OBDD first).
func buildIndex(tr *core.Translation) (*mvindex.Index, error) {
	return mvindex.Build(tr)
}
