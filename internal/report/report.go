// Package report renders analysis results as aligned text tables and CSV —
// the harness's equivalent of the paper's figures and tables. Each figure
// is emitted as the series of points a plotting tool would consume, plus a
// quantile summary for quick reading.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis/streaming"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table writes an aligned text table.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// F formats a float compactly (4 significant digits).
func F(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return strconv.FormatFloat(v*100, 'f', 1, 64) + "%" }

// CCDFQuantiles summarizes a sample by the x-values at which the CCDF
// crosses the given probabilities (i.e. upper quantiles), labelled for a
// figure report.
func CCDFQuantiles(name string, xs []float64, probs []float64) []string {
	row := []string{name}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range probs {
		row = append(row, F(stats.QuantileSorted(sorted, 1-p)))
	}
	return row
}

// CCDFSeries writes one or more CCDFs evaluated on a shared grid, one row
// per grid point, one column per series.
func CCDFSeries(w io.Writer, title string, grid []float64, series map[string][]float64) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	headers := append([]string{"x"}, names...)
	ccdfs := make(map[string][]stats.CCDFPoint, len(series))
	for name, xs := range series {
		ccdfs[name] = stats.CCDFSampled(xs, grid)
	}
	rows := make([][]string, 0, len(grid))
	for i, x := range grid {
		row := []string{F(x)}
		for _, name := range names {
			row = append(row, F(ccdfs[name][i].P))
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// TierSeriesTable writes an hourly per-tier series (Figures 2/4) for one
// resource dimension ("cpu" or "mem").
func TierSeriesTable(w io.Writer, title string, s streaming.TierSeries, resource string) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	headers := []string{"hour"}
	for _, tier := range trace.Tiers() {
		headers = append(headers, tier.String())
	}
	headers = append(headers, "total")
	rows := make([][]string, 0, len(s.Hours))
	for i := range s.Hours {
		row := []string{strconv.Itoa(int(s.Hours[i]))}
		total := 0.0
		for _, tier := range trace.Tiers() {
			var v float64
			if resource == "mem" {
				v = s.Mem[tier][i]
			} else {
				v = s.CPU[tier][i]
			}
			total += v
			row = append(row, F(v))
		}
		row = append(row, F(total))
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// TierAveragesTable writes Figures 3/5's per-cell bars.
func TierAveragesTable(w io.Writer, title string, cells []streaming.TierAverages, resource string) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	headers := []string{"cell"}
	for _, tier := range trace.Tiers() {
		headers = append(headers, tier.String())
	}
	headers = append(headers, "total")
	var rows [][]string
	for _, c := range cells {
		row := []string{c.Cell}
		total := 0.0
		for _, tier := range trace.Tiers() {
			var v float64
			if resource == "mem" {
				v = c.Mem[tier]
			} else {
				v = c.CPU[tier]
			}
			total += v
			row = append(row, F(v))
		}
		row = append(row, F(total))
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// Table1 writes the paper's Table 1 comparison.
func Table1(w io.Writer, rows []streaming.Table1Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Metric, r.V2011, r.V2019}
	}
	return Table(w, []string{"Metric", "2011", "2019"}, out)
}

// Table2 writes one era's pair of Table 2 columns.
func Table2(w io.Writer, title string, cpu, mem streaming.Table2Column) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	rows := [][]string{
		{"median", F(cpu.Median), F(mem.Median)},
		{"mean", F(cpu.Mean), F(mem.Mean)},
		{"variance", F(cpu.Variance), F(mem.Variance)},
		{"90%ile", F(cpu.P90), F(mem.P90)},
		{"99%ile", F(cpu.P99), F(mem.P99)},
		{"99.9%ile", F(cpu.P999), F(mem.P999)},
		{"maximum", F(cpu.Max), F(mem.Max)},
		{"top 1% jobs load", Pct(cpu.Top1Share), Pct(mem.Top1Share)},
		{"top 0.1% jobs load", Pct(cpu.Top01Share), Pct(mem.Top01Share)},
		{"C^2", F(cpu.C2), F(mem.C2)},
		{"Pareto(alpha)", F(cpu.ParetoAlpha), F(mem.ParetoAlpha)},
		{"R^2", Pct(cpu.ParetoR2), Pct(mem.ParetoR2)},
		{"jobs", strconv.Itoa(cpu.N), strconv.Itoa(mem.N)},
	}
	return Table(w, []string{"Measure", "NCU-hours", "NMU-hours"}, rows)
}

// Transitions writes Figure 7's transition counts.
func Transitions(w io.Writer, title string, ts []streaming.Transition, limit int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if limit <= 0 || limit > len(ts) {
		limit = len(ts)
	}
	rows := make([][]string, 0, limit)
	for _, t := range ts[:limit] {
		rows = append(rows, []string{t.From, t.To, strconv.Itoa(t.Count)})
	}
	return Table(w, []string{"From", "To", "Count"}, rows)
}

// WriteCSV writes rows (with a header) as CSV — for feeding external
// plotting tools.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile creates path, runs write on it and closes it, returning the
// first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
