// Command borgquery runs one filter/group-by query over a trace directory
// — the reproduction's miniature BigQuery (§3, §9). A query scans one
// table's rows once: an optional -where keeps the rows whose string
// column holds a value; without -group the kept rows are printed, and
// with -group one row per group (in first-appearance order) carries a
// count and at most one -agg over a float64 column. An -agg without
// -group is an error.
//
// Usage:
//
//	borgquery -trace ./trace-b -table usage -group tier -agg sum:avg_cpu
//	borgquery -trace ./trace-b -table collections -where tier=prod -limit 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgquery: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses the command line in args, runs the query and writes its
// result to w. A column a flag names must exist in the chosen table and
// have a type the flag can use; otherwise run returns an error naming
// the column and its type.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("borgquery", flag.ContinueOnError)
	dir := fs.String("trace", "", "trace directory (required)")
	tbl := fs.String("table", "collections", "table: collections, instances or usage")
	var q query
	fs.StringVar(&q.where, "where", "", "filter on a string column, e.g. tier=prod")
	fs.StringVar(&q.group, "group", "", "group-by column")
	fs.StringVar(&q.agg, "agg", "", "aggregation over a float64 column per -group value, e.g. sum:avg_cpu or mean:avg_mem")
	fs.IntVar(&q.limit, "limit", 20, "max rows (or groups) to print, with a line counting the rest; <= 0 prints all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return errors.New("-trace is required")
	}
	if q.agg != "" && q.group == "" {
		return fmt.Errorf("-agg %q needs -group", q.agg)
	}

	tr, err := trace.ReadDir(*dir)
	if err != nil {
		return err
	}
	switch *tbl {
	case "collections":
		return runQuery(w, slices.Values(tr.CollectionInfos()), collectionCols, q)
	case "instances":
		return runQuery(w, tr.InstanceEvents.All(), instanceCols, q)
	case "usage":
		return runQuery(w, tr.UsageRecords.All(), usageCols, q)
	}
	return fmt.Errorf("unknown table %q (want collections, instances or usage)", *tbl)
}

// query holds the query flags as given.
type query struct {
	where, group, agg string
	limit             int
}

// column is one column of a trace table: its name, its type ("int64",
// "float64" or "string") and its value in a row, of that Go type.
type column[R any] struct {
	name, typ string
	val       func(R) any
}

var collectionCols = []column[trace.CollectionInfo]{
	{"id", "int64", func(c trace.CollectionInfo) any { return int64(c.ID) }},
	{"type", "string", func(c trace.CollectionInfo) any { return c.CollectionType.String() }},
	{"tier", "string", func(c trace.CollectionInfo) any { return c.Tier.String() }},
	{"priority", "int64", func(c trace.CollectionInfo) any { return int64(c.Priority) }},
	{"user", "string", func(c trace.CollectionInfo) any { return c.User }},
	{"final", "string", func(c trace.CollectionInfo) any { return c.FinalEvent.String() }},
	{"parent", "int64", func(c trace.CollectionInfo) any { return int64(c.Parent) }},
}

var instanceCols = []column[trace.InstanceEvent]{
	{"collection", "int64", func(ev trace.InstanceEvent) any { return int64(ev.Key.Collection) }},
	{"index", "int64", func(ev trace.InstanceEvent) any { return int64(ev.Key.Index) }},
	{"type", "string", func(ev trace.InstanceEvent) any { return ev.Type.String() }},
	{"tier", "string", func(ev trace.InstanceEvent) any { return ev.Tier.String() }},
	{"machine", "int64", func(ev trace.InstanceEvent) any { return int64(ev.Machine) }},
	{"time", "int64", func(ev trace.InstanceEvent) any { return int64(ev.Time) }},
}

var usageCols = []column[trace.UsageRecord]{
	{"collection", "int64", func(u trace.UsageRecord) any { return int64(u.Key.Collection) }},
	{"tier", "string", func(u trace.UsageRecord) any { return u.Tier.String() }},
	{"machine", "int64", func(u trace.UsageRecord) any { return int64(u.Machine) }},
	{"avg_cpu", "float64", func(u trace.UsageRecord) any { return u.AvgUsage.CPU }},
	{"avg_mem", "float64", func(u trace.UsageRecord) any { return u.AvgUsage.Mem }},
	{"max_cpu", "float64", func(u trace.UsageRecord) any { return u.MaxUsage.CPU }},
	{"limit_cpu", "float64", func(u trace.UsageRecord) any { return u.Limit.CPU }},
	{"limit_mem", "float64", func(u trace.UsageRecord) any { return u.Limit.Mem }},
}

// group is one -group value's running count and -agg state.
type group struct {
	key           any
	n             int64
	sum, min, max float64
}

// aggregations maps each -agg kind to its value for a group.
var aggregations = map[string]func(g *group) float64{
	"sum":  func(g *group) float64 { return g.sum },
	"mean": func(g *group) float64 { return g.sum / float64(g.n) },
	"min":  func(g *group) float64 { return g.min },
	"max":  func(g *group) float64 { return g.max },
}

// runQuery runs q over rows, whose table has the columns cols, and
// writes the result to w.
func runQuery[R any](w io.Writer, rows iter.Seq[R], cols []column[R], q query) error {
	keep := func(R) bool { return true }
	if q.where != "" {
		name, val, ok := strings.Cut(q.where, "=")
		if !ok {
			return fmt.Errorf("bad -where %q (want col=value)", q.where)
		}
		c, err := findColumn(cols, "-where", name, "string")
		if err != nil {
			return err
		}
		keep = func(r R) bool { return c.val(r).(string) == val }
	}
	if q.group == "" {
		var kept []R
		for r := range rows {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		kept, more := limitRows(kept, q.limit)
		headers := make([]string, len(cols))
		for i, c := range cols {
			headers[i] = c.name
		}
		cells := make([][]string, len(kept))
		for i, r := range kept {
			for _, c := range cols {
				cells[i] = append(cells[i], cell(c.val(r)))
			}
		}
		return writeTable(w, headers, cells, more)
	}

	gc, err := findColumn(cols, "-group", q.group, "")
	if err != nil {
		return err
	}
	headers := []string{q.group, "n"}
	var agg func(*group) float64
	var ac column[R]
	if q.agg != "" {
		kind, name, ok := strings.Cut(q.agg, ":")
		if !ok {
			return fmt.Errorf("bad -agg %q (want kind:column)", q.agg)
		}
		if agg = aggregations[kind]; agg == nil {
			return fmt.Errorf("unknown aggregation %q (want sum, mean, min or max)", kind)
		}
		if ac, err = findColumn(cols, "-agg", name, "float64"); err != nil {
			return err
		}
		headers = append(headers, kind+"_"+name)
	}

	byKey := map[any]*group{}
	var groups []*group
	for r := range rows {
		if !keep(r) {
			continue
		}
		k := gc.val(r)
		g := byKey[k]
		if g == nil {
			g = &group{key: k, min: math.Inf(1), max: math.Inf(-1)}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.n++
		if agg != nil {
			v := ac.val(r).(float64)
			g.sum += v
			if v < g.min {
				g.min = v
			}
			if v > g.max {
				g.max = v
			}
		}
	}
	groups, more := limitRows(groups, q.limit)
	cells := make([][]string, len(groups))
	for i, g := range groups {
		cells[i] = []string{cell(g.key), strconv.FormatInt(g.n, 10)}
		if agg != nil {
			cells[i] = append(cells[i], cell(agg(g)))
		}
	}
	return writeTable(w, headers, cells, more)
}

// findColumn returns the column of cols called name. It returns an error
// naming the flag and the column when there is none, or when typ is not
// "" and the column's type is not typ.
func findColumn[R any](cols []column[R], flagName, name, typ string) (column[R], error) {
	var names []string
	for _, c := range cols {
		if c.name != name {
			names = append(names, c.name)
			continue
		}
		if typ != "" && c.typ != typ {
			return c, fmt.Errorf("%s column %q is %s, want %s", flagName, name, c.typ, typ)
		}
		return c, nil
	}
	return column[R]{}, fmt.Errorf("%s: unknown column %q (columns: %s)", flagName, name, strings.Join(names, ", "))
}

// limitRows returns the first limit elements of xs, or all of them when
// limit <= 0, and how many it left out.
func limitRows[T any](xs []T, limit int) ([]T, int) {
	if limit <= 0 || len(xs) <= limit {
		return xs, 0
	}
	return xs[:limit], len(xs) - limit
}

// cell formats one value: floats to six significant digits, integers in
// decimal and strings verbatim.
func cell(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.6g", f)
	}
	return fmt.Sprint(v)
}

// writeTable prints cells under headers, then a line counting the more
// rows that were left out, if any.
func writeTable(w io.Writer, headers []string, cells [][]string, more int) error {
	if err := report.Table(w, headers, cells); err != nil || more == 0 {
		return err
	}
	_, err := fmt.Fprintf(w, "... (%d more rows)\n", more)
	return err
}
