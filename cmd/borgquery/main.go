// Command borgquery runs simple filter/group-by queries over a trace
// directory using the columnar table engine — the reproduction's miniature
// BigQuery (§3, §9).
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
	"log"
	"os"
	"strings"

	"repro/internal/table"
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
	where := fs.String("where", "", "filter on a string column, e.g. tier=prod")
	group := fs.String("group", "", "group-by column")
	agg := fs.String("agg", "", "aggregation over a float64 column, e.g. sum:avg_cpu or mean:avg_mem")
	limit := fs.Int("limit", 20, "max rows to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return errors.New("-trace is required")
	}

	tr, err := trace.ReadDir(*dir)
	if err != nil {
		return err
	}
	t, err := buildTable(tr, *tbl)
	if err != nil {
		return err
	}
	q := table.From(t)
	if *where != "" {
		col, val, ok := strings.Cut(*where, "=")
		if !ok {
			return fmt.Errorf("bad -where %q (want col=value)", *where)
		}
		if err := checkColumn(t, "-where", col, table.String); err != nil {
			return err
		}
		q = q.Where(table.EqString(col, val))
	}
	if *group == "" {
		_, err := io.WriteString(w, q.Limit(*limit).Materialize().Format(*limit))
		return err
	}
	if err := checkColumn(t, "-group", *group, anyType); err != nil {
		return err
	}
	aggs := []table.Agg{table.Count("n")}
	if *agg != "" {
		kind, col, ok := strings.Cut(*agg, ":")
		if !ok {
			return fmt.Errorf("bad -agg %q (want kind:column)", *agg)
		}
		mk := map[string]func(name, col string) table.Agg{
			"sum": table.Sum, "mean": table.Mean, "min": table.Min, "max": table.Max,
		}[kind]
		if mk == nil {
			return fmt.Errorf("unknown aggregation %q (want sum, mean, min or max)", kind)
		}
		if err := checkColumn(t, "-agg", col, table.Float64); err != nil {
			return err
		}
		aggs = append(aggs, mk(kind+"_"+col, col))
	}
	_, err = io.WriteString(w, q.GroupBy([]string{*group}, aggs...).Format(*limit))
	return err
}

// anyType is checkColumn's want for a flag that takes a column of any
// type.
const anyType table.ColType = -1

// checkColumn returns an error unless t has a column called name whose
// type is want. The error names the flag, the column and, on a type
// mismatch, the column's type.
func checkColumn(t *table.Table, flagName, name string, want table.ColType) error {
	var names []string
	for _, c := range t.Columns() {
		if c.Name != name {
			names = append(names, c.Name)
			continue
		}
		if want != anyType && c.Type != want {
			return fmt.Errorf("%s column %q is %s, want %s", flagName, name, c.Type, want)
		}
		return nil
	}
	return fmt.Errorf("%s: unknown column %q (columns: %s)", flagName, name, strings.Join(names, ", "))
}

// buildTable adapts one trace table into the columnar engine.
func buildTable(tr *trace.MemTrace, name string) (*table.Table, error) {
	switch name {
	case "collections":
		t := table.New(
			table.Column{Name: "id", Type: table.Int64},
			table.Column{Name: "type", Type: table.String},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "priority", Type: table.Int64},
			table.Column{Name: "user", Type: table.String},
			table.Column{Name: "final", Type: table.String},
			table.Column{Name: "parent", Type: table.Int64},
		)
		for _, info := range tr.CollectionInfos() {
			t.Append(int64(info.ID), info.CollectionType.String(), info.Tier.String(),
				int64(info.Priority), info.User, info.FinalEvent.String(), int64(info.Parent))
		}
		return t, nil
	case "instances":
		t := table.New(
			table.Column{Name: "collection", Type: table.Int64},
			table.Column{Name: "index", Type: table.Int64},
			table.Column{Name: "type", Type: table.String},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "machine", Type: table.Int64},
			table.Column{Name: "time", Type: table.Int64},
		)
		for ev := range tr.InstanceEvents.All() {
			t.Append(int64(ev.Key.Collection), int64(ev.Key.Index), ev.Type.String(),
				ev.Tier.String(), int64(ev.Machine), int64(ev.Time))
		}
		return t, nil
	case "usage":
		t := table.New(
			table.Column{Name: "collection", Type: table.Int64},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "machine", Type: table.Int64},
			table.Column{Name: "avg_cpu", Type: table.Float64},
			table.Column{Name: "avg_mem", Type: table.Float64},
			table.Column{Name: "max_cpu", Type: table.Float64},
			table.Column{Name: "limit_cpu", Type: table.Float64},
			table.Column{Name: "limit_mem", Type: table.Float64},
		)
		for rec := range tr.UsageRecords.All() {
			t.Append(int64(rec.Key.Collection), rec.Tier.String(), int64(rec.Machine),
				rec.AvgUsage.CPU, rec.AvgUsage.Mem, rec.MaxUsage.CPU,
				rec.Limit.CPU, rec.Limit.Mem)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("unknown table %q (want collections, instances or usage)", name)
	}
}
