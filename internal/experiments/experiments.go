// Package experiments regenerates every figure and quantified claim of
// the paper's evaluation: F1-F3 for its figures, C1-C7 for its
// quantified claims. Each experiment returns a Table;
// cmd/skyquery-bench prints them all, and the module-root benchmarks wrap
// the same workloads in testing.B form.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result: an identifier tying it to the paper
// artifact, column headers, rows, and free-form notes about the expected
// shape.
type Table struct {
	ID     string // e.g. "F2" or "C1"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, stringifying the cells.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = v.Round(10 * time.Microsecond).String()
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		sb.WriteString(strings.TrimRight(strings.Join(parts, "  "), " "))
		sb.WriteByte('\n')
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"F1", F1Federation},
		{"F2", F2XMatchSemantics},
		{"F3", F3ExecutionTrace},
		{"C1", C1PlanOrdering},
		{"C2", C2Chunking},
		{"C3", C3HTMRange},
		{"C4", C4SOAPOverhead},
		{"C5", C5ChainVsPull},
		{"C6", C6Scaling},
		{"C7", C7PerfQueries},
	}
}
