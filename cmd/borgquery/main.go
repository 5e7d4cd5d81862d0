// Command borgquery runs one filter/group-by query over one table of a
// trace directory — the reproduction's miniature BigQuery (§3, §9). The
// tables are the trace's four CSV files, named by their file stems:
// collection_events (the default), instance_events, instance_usage and
// machine_events. A table's columns are its CSV header's, each of type
// int, float or string (an enum's name is a string). A query scans the
// table's rows once: an optional -where keeps the rows whose string
// column holds a value; without -group the kept rows are printed, and
// with -group one row per group (in first-appearance order) carries a
// count and at most one -agg over a float column. An -agg without -group
// is an error.
//
// Usage:
//
//	borgquery -trace ./trace-b -table instance_usage -group tier -agg sum:avg_cpu
//	borgquery -trace ./trace-b -where tier=prod -limit 10
//	borgquery -trace ./trace-b -where type=FINISH -group tier
//	borgquery -trace ./trace-b -table machine_events -group platform
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
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
	tables := []string{trace.CollectionEventsTable.Name(), trace.InstanceEventsTable.Name(),
		trace.UsageTable.Name(), trace.MachineEventsTable.Name()}
	fs := flag.NewFlagSet("borgquery", flag.ContinueOnError)
	dir := fs.String("trace", "", "trace directory (required)")
	tbl := fs.String("table", tables[0], "table: "+strings.Join(tables, ", "))
	var q query
	fs.StringVar(&q.where, "where", "", "filter on a string column, e.g. tier=prod")
	fs.StringVar(&q.group, "group", "", "group-by column")
	fs.StringVar(&q.agg, "agg", "", "aggregation over a float column per -group value, e.g. sum:avg_cpu or mean:avg_mem")
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

	switch *tbl {
	case trace.CollectionEventsTable.Name():
		return runQuery(w, *dir, &trace.CollectionEventsTable, q)
	case trace.InstanceEventsTable.Name():
		return runQuery(w, *dir, &trace.InstanceEventsTable, q)
	case trace.UsageTable.Name():
		return runQuery(w, *dir, &trace.UsageTable, q)
	case trace.MachineEventsTable.Name():
		return runQuery(w, *dir, &trace.MachineEventsTable, q)
	}
	return fmt.Errorf("unknown table %q (want %s)", *tbl, strings.Join(tables, ", "))
}

// query holds the query flags as given.
type query struct {
	where, group, agg string
	limit             int
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

// runQuery runs q over the rows of table t, streamed from the trace
// directory dir, and writes the result to w. It reads no other table.
func runQuery[R any](w io.Writer, dir string, t *trace.Table[R], q query) error {
	cols := t.Columns()
	keep := func(*R) bool { return true }
	if q.where != "" {
		name, val, ok := strings.Cut(q.where, "=")
		if !ok {
			return fmt.Errorf("bad -where %q (want col=value)", q.where)
		}
		c, err := findColumn(cols, "-where", name, trace.KindString)
		if err != nil {
			return err
		}
		keep = func(r *R) bool { return c.Value(r).(string) == val }
	}
	if q.group == "" {
		var kept []R
		if err := t.Read(dir, func(r R) {
			if keep(&r) {
				kept = append(kept, r)
			}
		}); err != nil {
			return err
		}
		kept, more := limitRows(kept, q.limit)
		headers := make([]string, len(cols))
		for i, c := range cols {
			headers[i] = c.Name()
		}
		cells := make([][]string, len(kept))
		for i := range kept {
			for _, c := range cols {
				cells[i] = append(cells[i], cell(c.Value(&kept[i])))
			}
		}
		return writeTable(w, headers, cells, more)
	}

	gc, err := findColumn(cols, "-group", q.group)
	if err != nil {
		return err
	}
	headers := []string{q.group, "n"}
	var agg func(*group) float64
	var ac trace.Column[R]
	if q.agg != "" {
		kind, name, ok := strings.Cut(q.agg, ":")
		if !ok {
			return fmt.Errorf("bad -agg %q (want kind:column)", q.agg)
		}
		if agg = aggregations[kind]; agg == nil {
			return fmt.Errorf("unknown aggregation %q (want sum, mean, min or max)", kind)
		}
		if ac, err = findColumn(cols, "-agg", name, trace.KindFloat); err != nil {
			return err
		}
		headers = append(headers, kind+"_"+name)
	}

	byKey := map[any]*group{}
	var groups []*group
	err = t.Read(dir, func(r R) {
		if !keep(&r) {
			return
		}
		k := gc.Value(&r)
		g := byKey[k]
		if g == nil {
			g = &group{key: k, min: math.Inf(1), max: math.Inf(-1)}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.n++
		if agg != nil {
			v := ac.Value(&r).(float64)
			g.sum += v
			if v < g.min {
				g.min = v
			}
			if v > g.max {
				g.max = v
			}
		}
	})
	if err != nil {
		return err
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
// naming the flag and the column when there is none, or when a kind is
// given and the column is not of that kind.
func findColumn[R any](cols []trace.Column[R], flagName, name string, kind ...trace.Kind) (trace.Column[R], error) {
	var names []string
	for _, c := range cols {
		if c.Name() != name {
			names = append(names, c.Name())
			continue
		}
		if len(kind) > 0 && c.Kind() != kind[0] {
			return c, fmt.Errorf("%s column %q is %s, want %s", flagName, name, c.Kind(), kind[0])
		}
		return c, nil
	}
	return trace.Column[R]{}, fmt.Errorf("%s: unknown column %q (columns: %s)", flagName, name, strings.Join(names, ", "))
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
