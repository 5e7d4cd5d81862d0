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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgquery: ")
	dir := flag.String("trace", "", "trace directory (required)")
	tbl := flag.String("table", "collections", "table: collections, instances or usage")
	where := flag.String("where", "", "filter, e.g. tier=prod")
	group := flag.String("group", "", "group-by column")
	agg := flag.String("agg", "", "aggregation, e.g. sum:avg_cpu or mean:avg_mem")
	limit := flag.Int("limit", 20, "max rows to print")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	tr, err := trace.ReadDir(*dir)
	if err != nil {
		log.Fatal(err)
	}

	t := buildTable(tr, *tbl)
	q := table.From(t)
	if *where != "" {
		col, val, ok := strings.Cut(*where, "=")
		if !ok {
			log.Fatalf("bad -where %q (want col=value)", *where)
		}
		q = q.Where(table.EqString(col, val))
	}
	if *group != "" {
		var aggs []table.Agg
		aggs = append(aggs, table.Count("n"))
		if *agg != "" {
			kind, col, ok := strings.Cut(*agg, ":")
			if !ok {
				log.Fatalf("bad -agg %q (want kind:column)", *agg)
			}
			switch kind {
			case "sum":
				aggs = append(aggs, table.Sum("sum_"+col, col))
			case "mean":
				aggs = append(aggs, table.Mean("mean_"+col, col))
			case "min":
				aggs = append(aggs, table.Min("min_"+col, col))
			case "max":
				aggs = append(aggs, table.Max("max_"+col, col))
			default:
				log.Fatalf("unknown aggregation %q", kind)
			}
		}
		result := q.GroupBy([]string{*group}, aggs...)
		fmt.Print(result.Format(*limit))
		return
	}
	fmt.Print(q.Limit(*limit).Materialize().Format(*limit))
}

// buildTable adapts one trace table into the columnar engine.
func buildTable(tr *trace.MemTrace, name string) *table.Table {
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
		return t
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
		return t
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
		return t
	default:
		log.Fatalf("unknown table %q", name)
		return nil
	}
}
