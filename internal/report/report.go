// Package report renders experiment results as aligned text tables,
// ASCII bar charts and Gantt timelines — the output layer of the
// reproduction harness.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it panics on column-count mismatch, which is
// always a harness bug.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v for strings and %.4g for floats.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = formatFloat(v)
		case float32:
			out[i] = formatFloat(float64(v))
		default:
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(out...)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case v != 0 && (math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if l := len([]rune(c)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return ""
	}
	return sb.String()
}

// Bar renders a horizontal ASCII bar of the value scaled against maxVal
// over the given width.
func Bar(value, maxVal float64, width int) string {
	if width <= 0 || maxVal <= 0 || value <= 0 {
		return ""
	}
	n := int(math.Round(value / maxVal * float64(width)))
	if n > width {
		n = width
	}
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// BarChart renders labelled values as an ASCII bar chart, one row per
// label, scaled to the largest value.
func BarChart(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic("report: labels and values length mismatch")
	}
	var maxVal float64
	labelW := 0
	for i, l := range labels {
		if values[i] > maxVal {
			maxVal = values[i]
		}
		if len([]rune(l)) > labelW {
			labelW = len([]rune(l))
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "-- %s --\n", title)
	}
	for i, l := range labels {
		fmt.Fprintf(&sb, "%-*s | %-*s %s\n", labelW, l, width, Bar(values[i], maxVal, width), formatFloat(values[i]))
	}
	return sb.String()
}
