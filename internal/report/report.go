// Package report renders experiment results in machine- and
// human-friendly formats: aligned text (the default the cmd tools print),
// CSV (for plotting the paper's series externally), and Markdown (for
// EXPERIMENTS.md-style documents). It is deliberately dumb — a grid of
// cells with typed columns — so every experiment driver can feed it.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// New creates a table with the given columns.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns",
			len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row built from values formatted with %v.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// FailMark annotates a row label with a supervised-replay failure kind
// ("panic", "stall", "budget", "cancelled", "error"): the cell stays in
// the table as a marked row instead of aborting the sweep. An empty kind
// returns the label unchanged.
func FailMark(label, kind string) string {
	if kind == "" {
		return label
	}
	return label + " [" + kind + "]"
}

// Format identifies an output encoding.
type Format string

// Supported encodings.
const (
	Text     Format = "text"
	CSV      Format = "csv"
	Markdown Format = "markdown"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case Text, CSV, Markdown:
		return Format(s), nil
	case "md":
		return Markdown, nil
	default:
		return "", fmt.Errorf("report: unknown format %q (want text, csv, or markdown)", s)
	}
}

// Render writes the table in the requested format.
func (t *Table) Render(w io.Writer, f Format) error {
	switch f {
	case Text:
		return t.renderText(w)
	case CSV:
		return t.renderCSV(w)
	case Markdown:
		return t.renderMarkdown(w)
	default:
		return fmt.Errorf("report: unknown format %q", f)
	}
}

func (t *Table) renderText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) renderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (t *Table) renderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		escaped := make([]string, len(row))
		for i, c := range row {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(escaped, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
