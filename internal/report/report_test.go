package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	for _, want := range []string{"== Demo ==", "name", "value", "alpha", "beta", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d, want 5", len(lines))
	}
	// Columns aligned: every data line has the same prefix width for
	// column 2.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Errorf("row narrower than header: %q", l)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Error("empty title rendered a banner")
	}
}

func TestAddRowMismatchPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("column mismatch did not panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestAddRowfFormats(t *testing.T) {
	tb := NewTable("x", "a", "b", "c", "d", "e")
	tb.AddRowf("s", 42, 3.14159, float32(2), 1e9)
	row := tb.Rows[0]
	if row[0] != "s" || row[1] != "42" {
		t.Errorf("row = %v", row)
	}
	if row[2] != "3.142" {
		t.Errorf("float = %q, want 3.142", row[2])
	}
	if row[4] != "1e+09" {
		t.Errorf("big float = %q, want scientific", row[4])
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(1, 1000, 10); got != "#" {
		t.Errorf("tiny value should still show one mark, got %q", got)
	}
	if got := Bar(200, 100, 10); got != "##########" {
		t.Errorf("overflow should clamp, got %q", got)
	}
	if Bar(0, 100, 10) != "" || Bar(5, 0, 10) != "" || Bar(5, 10, 0) != "" {
		t.Error("degenerate bars should be empty")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("title", []string{"aa", "b"}, []float64{2, 1}, 8)
	if !strings.Contains(out, "-- title --") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "########") {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if !strings.Contains(lines[2], "####") || strings.Contains(lines[2], "#####") {
		t.Errorf("half bar wrong: %q", lines[2])
	}
}

func TestBarChartMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatch did not panic")
		}
	}()
	BarChart("x", []string{"a"}, []float64{1, 2}, 10)
}

func TestFormatFloatSpecials(t *testing.T) {
	tb := NewTable("x", "v")
	tb.AddRowf(0.0)
	if tb.Rows[0][0] != "0.000" {
		t.Errorf("zero = %q", tb.Rows[0][0])
	}
	tb.AddRowf(0.0001)
	if tb.Rows[1][0] != "0.0001" {
		t.Errorf("small = %q", tb.Rows[1][0])
	}
}

func TestGanttRendersLanes(t *testing.T) {
	spans := []Span{
		{Lane: "prep", Start: 0, End: 2},
		{Lane: "compute", Start: 1, End: 3},
		{Lane: "prep", Start: 2, End: 4},
	}
	out := Gantt("pipeline", spans, 20)
	if !strings.Contains(out, "-- pipeline --") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, 2 lanes, axis
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "prep") || !strings.HasPrefix(lines[2], "compute") {
		t.Errorf("lane order wrong:\n%s", out)
	}
	// Prep lane busy [0,2) and [2,4): fully filled.
	prepRow := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if strings.Contains(prepRow, ".") {
		t.Errorf("prep lane should be fully busy: %q", prepRow)
	}
	// Compute lane idle in the first quarter.
	compRow := lines[2][strings.Index(lines[2], "|")+1 : strings.LastIndex(lines[2], "|")]
	if compRow[0] != '.' {
		t.Errorf("compute lane should start idle: %q", compRow)
	}
}

func TestGanttDegenerate(t *testing.T) {
	if Gantt("x", nil, 10) != "" {
		t.Error("empty spans should render nothing")
	}
	if Gantt("x", []Span{{Lane: "a", Start: 1, End: 1}}, 10) != "" {
		t.Error("zero-duration window should render nothing")
	}
	if Gantt("x", []Span{{Lane: "a", Start: 0, End: 1}}, 0) != "" {
		t.Error("zero width should render nothing")
	}
}
