package sweep

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/report"
	"repro/internal/stats"
)

// WriteReport renders the sweep: a header describing the grid, a
// metric × variant summary of cross-seed means, then one table per
// metric with the full cross-seed statistics (mean, stddev, min, max,
// 95% CI half-width, n). Output is a pure function of the Result, so the
// determinism contract extends to the report bytes.
func (r *Result) WriteReport(w io.Writer) error {
	d := r.Def
	if _, err := fmt.Fprintf(w,
		"== sweep: scale %q · %d seeds × %d variants × %d cells · root seed %d ==\n",
		d.Scale.Name, d.Seeds, len(r.Variants), r.Cells, d.Scale.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"(each grid point's metrics are the suite report's, over its nine cells; ±95%% CI via Student-t, n=%d)\n\n",
		d.Seeds); err != nil {
		return err
	}

	headers := []string{"metric"}
	for _, v := range r.Variants {
		headers = append(headers, v.Name)
	}
	rows := make([][]string, len(r.Metrics))
	for m, name := range r.Metrics {
		rows[m] = []string{name}
		for _, v := range r.Variants {
			rows[m] = append(rows[m], report.F(v.Stats[m].Mean))
		}
	}
	if _, err := fmt.Fprintln(w, "== sweep summary: cross-seed means =="); err != nil {
		return err
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}

	for m, name := range r.Metrics {
		if _, err := fmt.Fprintf(w, "\n== metric %s ==\n", name); err != nil {
			return err
		}
		rows := make([][]string, 0, len(r.Variants))
		for _, v := range r.Variants {
			rows = append(rows, append([]string{v.Name}, statCells(v.Stats[m])...))
		}
		if err := report.Table(w, []string{"variant", "mean", "stddev", "min", "max", "ci95±", "n"}, rows); err != nil {
			return err
		}
	}
	return r.writePairedSection(w)
}

// writePairedSection renders the paired-difference comparison: for every
// non-baseline variant and metric, the per-replicate variant-minus-
// baseline difference (mean, stddev, paired-t 95% half-width) next to the
// Welch unpaired half-width on the same data. Because replicates share
// grid seeds across variants (common random numbers), the paired
// interval is the honest one — and its advantage over the unpaired
// column is the variance reduction the seeding discipline buys. Omitted
// when the sweep has a single variant (nothing to compare).
func (r *Result) writePairedSection(w io.Writer) error {
	if len(r.Variants) < 2 {
		return nil
	}
	base := r.Variants[r.Baseline]
	if _, err := fmt.Fprintf(w,
		"\n== paired differences vs %q (per-replicate diffs under common random numbers) ==\n",
		base.Name); err != nil {
		return err
	}
	return report.Table(w,
		[]string{"variant", "metric", "diff mean", "diff stddev", "paired ci95±", "unpaired ci95±", "n"}, r.diffRows())
}

// statCells formats a cross-seed summary: mean, stddev, min, max, ci95
// and n.
func statCells(st stats.CrossRun) []string {
	return []string{report.F(st.Mean), report.F(st.Stddev), report.F(st.Min), report.F(st.Max),
		report.F(st.CI95), strconv.Itoa(st.N)}
}

// diffRows gives one row per non-baseline variant and metric: variant,
// metric, the difference's mean and stddev, the paired and unpaired
// ci95, and n.
func (r *Result) diffRows() [][]string {
	var rows [][]string
	for _, v := range r.Variants {
		for m, d := range v.Diffs {
			rows = append(rows, []string{v.Name, r.Metrics[m], report.F(d.Mean), report.F(d.Stddev),
				report.F(d.CI95), report.F(v.UnpairedCI95[m]), strconv.Itoa(d.N)})
		}
	}
	return rows
}

// WriteCSVs exports the sweep to dir (created if needed): one
// <metric>.csv per metric with the per-seed values in long form, plus
// summary.csv holding every variant × metric CrossRun. Files are written
// deterministically, so two runs of the same sweep produce identical
// bytes.
func (r *Result) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for m, name := range r.Metrics {
		var rows [][]string
		for _, v := range r.Variants {
			for run, vec := range v.PerSeed {
				rows = append(rows, []string{v.Name, strconv.Itoa(run), report.F(vec[m])})
			}
		}
		if err := writeCSVFile(filepath.Join(dir, name+".csv"),
			[]string{"variant", "seed", name}, rows); err != nil {
			return err
		}
	}

	var rows [][]string
	for _, v := range r.Variants {
		for m, st := range v.Stats {
			rows = append(rows, append([]string{v.Name, r.Metrics[m]}, statCells(st)...))
		}
	}
	if err := writeCSVFile(filepath.Join(dir, "summary.csv"),
		[]string{"variant", "metric", "mean", "stddev", "min", "max", "ci95", "n"}, rows); err != nil {
		return err
	}

	// paired_diffs.csv mirrors the report's paired-difference section:
	// variant-minus-baseline per-replicate differences with both the
	// paired and the unpaired 95% half-widths, and the baseline named.
	diffRows := r.diffRows()
	for i, row := range diffRows {
		diffRows[i] = append([]string{row[0], r.Variants[r.Baseline].Name}, row[1:]...)
	}
	if len(diffRows) == 0 {
		return nil
	}
	return writeCSVFile(filepath.Join(dir, "paired_diffs.csv"),
		[]string{"variant", "baseline", "metric", "diff_mean", "diff_stddev", "paired_ci95", "unpaired_ci95", "n"}, diffRows)
}

// writeCSVFile writes one CSV through the report codec.
func writeCSVFile(path string, headers []string, rows [][]string) error {
	return report.WriteFile(path, func(w io.Writer) error { return report.WriteCSV(w, headers, rows) })
}
