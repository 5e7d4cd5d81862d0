package report

import (
	"strings"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/trace"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	err := Table(&b, []string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "long-header") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestFormatters(t *testing.T) {
	if F(0.123456) != "0.1235" {
		t.Fatalf("F: %q", F(0.123456))
	}
	if Pct(0.5) != "50.0%" {
		t.Fatalf("Pct: %q", Pct(0.5))
	}
}

func TestCCDFQuantiles(t *testing.T) {
	row := CCDFQuantiles("series", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{0.5, 0.1})
	if row[0] != "series" || len(row) != 3 {
		t.Fatalf("row %v", row)
	}
	// P(X > x) = 0.5 at the median.
	if row[1] != "5.5" {
		t.Fatalf("median %q", row[1])
	}
}

func TestCCDFSeries(t *testing.T) {
	var b strings.Builder
	err := CCDFSeries(&b, "Figure test", []float64{0, 5, 10}, map[string][]float64{
		"a": {1, 2, 3},
		"b": {6, 7, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure test") || !strings.Contains(out, "a") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTierSeriesTable(t *testing.T) {
	s := streaming.TierSeries{
		Hours: []float64{0, 1},
		CPU:   map[trace.Tier][]float64{},
		Mem:   map[trace.Tier][]float64{},
	}
	for _, tier := range trace.Tiers() {
		s.CPU[tier] = []float64{0.1, 0.2}
		s.Mem[tier] = []float64{0.05, 0.1}
	}
	var b strings.Builder
	if err := TierSeriesTable(&b, "Figure 2a", s, "cpu"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "free") || !strings.Contains(b.String(), "0.4") {
		t.Fatalf("output:\n%s", b.String())
	}
	b.Reset()
	if err := TierSeriesTable(&b, "Figure 2c", s, "mem"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.2") {
		t.Fatalf("mem output:\n%s", b.String())
	}
}

func TestTierAveragesTable(t *testing.T) {
	cells := []streaming.TierAverages{
		{Cell: "a", CPU: map[trace.Tier]float64{trace.TierProduction: 0.4}, Mem: map[trace.Tier]float64{trace.TierProduction: 0.3}},
	}
	var b strings.Builder
	if err := TierAveragesTable(&b, "Figure 3", cells, "cpu"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.4") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestTable1And2(t *testing.T) {
	var b strings.Builder
	if err := Table1(&b, []streaming.Table1Row{{Metric: "Cells", V2011: "1", V2019: "8"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Cells") {
		t.Fatal("table1 output")
	}
	b.Reset()
	col := streaming.Table2Column{Median: 0.001, Mean: 1, C2: 100, Top1Share: 0.9, ParetoAlpha: 0.7, ParetoR2: 0.99, N: 10}
	if err := Table2(&b, "Table 2 (2019)", col, col); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "C^2") || !strings.Contains(out, "90.0%") {
		t.Fatalf("table2 output:\n%s", out)
	}
}

func TestTransitions(t *testing.T) {
	var b strings.Builder
	ts := []streaming.Transition{
		{From: "SUBMIT", To: "SCHEDULE", Count: 100},
		{From: "EVICT", To: "SUBMIT", Count: 1},
	}
	if err := Transitions(&b, "Figure 7", ts, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "SCHEDULE") || strings.Contains(out, "EVICT") {
		t.Fatalf("limit not applied:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, []string{"x", "y"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	if b.String() != "x,y\n1,2\n" {
		t.Fatalf("csv: %q", b.String())
	}
}
