package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges as scalar series, histograms as summaries
// (quantile-labeled series plus _sum and _count), every value exact.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", g.Name, g.Name, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", h.Name); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", h.Name, q.label, promFloat(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.Name, promFloat(h.Sum), h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promFloat formats a float the way Prometheus expects: full round-trip
// precision, NaN spelled literally.
func promFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders the snapshot in long form: one row per instrument
// with kind-appropriate columns filled and the rest empty.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "kind", "value", "count", "sum", "min", "p50", "p90", "p99", "max"}); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if err := cw.Write([]string{c.Name, "counter", strconv.FormatInt(c.Value, 10), "", "", "", "", "", "", ""}); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := cw.Write([]string{g.Name, "gauge", promFloat(g.Value), "", "", "", "", "", "", ""}); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		rec := []string{h.Name, "histogram", "", strconv.FormatInt(h.Count, 10), promFloat(h.Sum),
			promFloat(h.Min), promFloat(h.P50), promFloat(h.P90), promFloat(h.P99), promFloat(h.Max)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSnapshotFile writes the snapshot to w in the format named by the
// path extension: ".json" → JSON, ".csv" → CSV, anything else → the
// Prometheus text format (the conventional ".prom").
func (s Snapshot) WriteSnapshotFile(w io.Writer, path string) error {
	switch {
	case strings.HasSuffix(path, ".json"):
		return s.WriteJSON(w)
	case strings.HasSuffix(path, ".csv"):
		return s.WriteCSV(w)
	default:
		return s.WritePrometheus(w)
	}
}
