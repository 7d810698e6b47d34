// Package experiments is the reproduction of the paper's evaluation (§5,
// Figures 7–12), the §4.5 introductory example, the §4.3.1 overhead bound
// and the §7 extensions, as one registry: All lists every experiment as a
// row — its parameters, the claim it is held to and the function that
// computes its table. cmd/pdmsbench prints the rows, the package's tests
// check each row's claim, and REPRODUCTION.json at the root of the
// repository pins every cell. Every row is deterministic.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/eval"
)

// Table is the result of one experiment. A cell is an int, a float64, a
// bool or a string.
type Table struct {
	Columns []string
	Rows    [][]any
}

// Experiment is one row of the reproduction.
type Experiment struct {
	// ID is the row's -fig value and its key in REPRODUCTION.json.
	ID string
	// Title names the figure or section and the parameters the row runs
	// under.
	Title string
	// Claim is the qualitative fact the row's table is held to; the test
	// suite's check of the same ID asserts it.
	Claim string
	// Plot names the x column followed by the y columns of the row's
	// figure; nil draws none.
	Plot []string
	Run  func() (Table, error)
}

// num returns a numeric cell as a float64.
func num(cell any) float64 {
	switch v := cell.(type) {
	case int:
		return float64(v)
	case float64:
		return v
	}
	panic(fmt.Sprintf("experiments: cell %v (%T) is not a number", cell, cell))
}

// text formats a cell for the terminal: floats to four significant digits.
func text(cell any) string {
	switch v := cell.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	return fmt.Sprint(cell)
}

// Render formats one experiment for the terminal: the title, the ASCII
// figure if the row declares one, the table and the claim.
func Render(e Experiment, t Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n═══ %s ═══\n\n", e.Title)
	if len(e.Plot) > 0 {
		x := slices.Index(t.Columns, e.Plot[0])
		var series []eval.Series
		for _, name := range e.Plot[1:] {
			s := eval.Series{Name: name}
			y := slices.Index(t.Columns, name)
			for _, r := range t.Rows {
				s.Add(num(r[x]), num(r[y]))
			}
			series = append(series, s)
		}
		b.WriteString(eval.Plot(series, 60, 14))
		b.WriteString("\n")
	}
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		for _, c := range r {
			rows[i] = append(rows[i], text(c))
		}
	}
	b.WriteString(eval.Table(t.Columns, rows))
	fmt.Fprintf(&b, "\n%s\n", e.Claim)
	return b.String()
}

// Document marshals the reproduction — the experiments of All, each with
// the table its Run returned, tables[i] belonging to All[i] — as the JSON
// array REPRODUCTION.json holds: one object per experiment, floats at full
// precision, one table row per line so that a changed cell is a one-line
// diff.
func Document(tables []Table) ([]byte, error) {
	b := []byte("[")
	for i, e := range All {
		head, err := json.Marshal(struct {
			ID      string   `json:"id"`
			Title   string   `json:"title"`
			Claim   string   `json:"claim"`
			Columns []string `json:"columns"`
		}{e.ID, e.Title, e.Claim, tables[i].Columns})
		if err != nil {
			return nil, err
		}
		b = append(append(b, '\n'), bytes.TrimSuffix(head, []byte("}"))...)
		b = append(b, `,"rows":[`...)
		for j, r := range tables[i].Rows {
			row, err := json.Marshal(r)
			if err != nil {
				return nil, fmt.Errorf("experiments: row %d of %s: %w", j, e.ID, err)
			}
			b = append(append(append(b, "\n "...), row...), ',')
		}
		b = append(bytes.TrimSuffix(b, []byte(",")), "\n]},"...)
	}
	return append(bytes.TrimSuffix(b, []byte(",")), "\n]\n"...), nil
}
