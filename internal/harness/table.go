// Package harness regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (dataset statistics), Table 2 (epoch-time
// speedups), Table 3 (BF16 ablation), Table 4 (AVX ablation), Figure 6
// (convergence curves and epoch-time bars), plus the §5.7 memory-layout and
// §4.1.1 thread-scaling ablations.
//
// Every row is measured: the real systems run on the host at a
// configurable dataset scale. The paper's cross-platform rows (CLX / CPX /
// V100) are not reproduced. Every experiment renders an ASCII table and
// optionally writes CSVs.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Append adds a row, stringifying cells with %v.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table in aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(width) {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", strings.Repeat("=", len(t.Title))); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(width)*2 - 2
	for _, wd := range width {
		total += wd
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", t.Note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the table as CSV (no quoting needed: cells are plain).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
