package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRun queries a small stored trace. Good queries print a table; a
// flag naming a missing column, or a column of a type the flag cannot
// use, returns an error naming the column instead of panicking. The
// printed rows, groups and aggregates match the trace's own rows, and
// both modes cut at -limit the same way.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	p := workload.Profile2019("b", 20)
	opts := core.Options{Horizon: 2 * sim.Hour, Seed: 7}
	ds, err := trace.NewDirSink(dir, core.TraceMeta(p, opts))
	if err != nil {
		t.Fatal(err)
	}
	opts.ExtraSinks = []trace.Sink{ds}
	core.Run(p, opts)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string // a substring of the output, or of the error when bad
		bad  bool
	}{
		{"collections", nil, "alloc_collection_id", false},
		{"where", []string{"-where", "tier=prod"}, "prod", false},
		{"group", []string{"-table", "instance_usage", "-group", "tier", "-agg", "sum:avg_cpu"}, "sum_avg_cpu", false},
		{"group machine_events", []string{"-table", "machine_events", "-group", "platform", "-agg", "max:capacity_mem"}, "max_capacity_mem", false},
		{"instances agg int column", []string{"-table", "instance_events", "-group", "type", "-agg", "max:machine_id"}, `-agg column "machine_id" is int, want float`, true},
		{"agg int column", []string{"-group", "tier", "-agg", "sum:priority"}, `-agg column "priority" is int, want float`, true},
		{"where int column", []string{"-where", "priority=3"}, `-where column "priority" is int, want string`, true},
		{"where float column", []string{"-table", "instance_usage", "-where", "avg_cpu=0"}, `-where column "avg_cpu" is float, want string`, true},
		{"unknown group", []string{"-group", "bogus"}, `-group: unknown column "bogus"`, true},
		{"unknown where", []string{"-where", "bogus=1"}, `-where: unknown column "bogus"`, true},
		{"unknown agg column", []string{"-table", "instance_usage", "-group", "tier", "-agg", "mean:bogus"}, `-agg: unknown column "bogus"`, true},
		{"unknown agg kind", []string{"-table", "instance_usage", "-group", "tier", "-agg", "median:avg_cpu"}, `unknown aggregation "median"`, true},
		{"malformed agg", []string{"-group", "tier", "-agg", "sum"}, `bad -agg "sum"`, true},
		{"malformed where", []string{"-where", "tier"}, `bad -where "tier"`, true},
		{"agg without group", []string{"-table", "instance_usage", "-agg", "mean:avg_cpu"}, `-agg "mean:avg_cpu" needs -group`, true},
		{"malformed agg without group", []string{"-agg", "median:bogus", "-limit", "1"}, `-agg "median:bogus" needs -group`, true},
		{"unknown table", []string{"-table", "bogus"}, `unknown table "bogus"`, true},
		{"retired table name", []string{"-table", "usage"}, `unknown table "usage" (want collection_events, instance_events, instance_usage, machine_events)`, true},
		{"retired column name", []string{"-table", "instance_usage", "-group", "machine"}, `-group: unknown column "machine"`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b bytes.Buffer
			err := run(&b, append([]string{"-trace", dir}, tc.args...))
			switch {
			case tc.bad && err == nil:
				t.Fatalf("accepted; output:\n%s", b.String())
			case tc.bad && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not contain %q", err, tc.want)
			case !tc.bad && err != nil:
				t.Fatal(err)
			case !tc.bad && !strings.Contains(b.String(), tc.want):
				t.Fatalf("output does not contain %q:\n%s", tc.want, b.String())
			}
		})
	}

	// query runs args against the trace and returns the printed rows
	// split into fields, without the header and its rule, and the
	// number of rows the footer says were left out.
	query := func(t *testing.T, args ...string) (rows [][]string, more int) {
		t.Helper()
		var b bytes.Buffer
		if err := run(&b, append([]string{"-trace", dir}, args...)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if len(lines) < 2 || strings.Trim(lines[1], "- ") != "" {
			t.Fatalf("%v: no header and rule:\n%s", args, b.String())
		}
		for _, line := range lines[2:] {
			if _, err := fmt.Sscanf(line, "... (%d more rows)", &more); err == nil {
				continue
			}
			rows = append(rows, strings.Fields(line))
		}
		return rows, more
	}

	// Per tier in first-appearance order: the count and the sum, mean,
	// min and max of avg_cpu over the trace's usage rows.
	type tierAgg struct {
		tier          string
		n             int
		sum, min, max float64
	}
	var tiers []*tierAgg
	for u := range tr.UsageRecords.All() {
		i := slices.IndexFunc(tiers, func(a *tierAgg) bool { return a.tier == u.Tier.String() })
		if i < 0 {
			i = len(tiers)
			tiers = append(tiers, &tierAgg{tier: u.Tier.String(), min: math.Inf(1), max: math.Inf(-1)})
		}
		a := tiers[i]
		a.n++
		a.sum += u.AvgUsage.CPU
		a.min = min(a.min, u.AvgUsage.CPU)
		a.max = max(a.max, u.AvgUsage.CPU)
	}
	if len(tiers) < 2 {
		t.Fatalf("usage rows span %d tiers; the checks below need two", len(tiers))
	}

	// Sum and mean of avg_cpu per tier match the usage rows, and a
	// grouped query over an empty selection prints no groups.
	t.Run("aggregates", func(t *testing.T) {
		for _, kind := range []string{"sum", "mean"} {
			rows, more := query(t, "-table", "instance_usage", "-group", "tier", "-agg", kind+":avg_cpu", "-limit", "0")
			if len(rows) != len(tiers) || more != 0 {
				t.Fatalf("%s: %d groups (%d more), want %d", kind, len(rows), more, len(tiers))
			}
			for i, a := range tiers {
				want := map[string]float64{"sum": a.sum, "mean": a.sum / float64(a.n)}[kind]
				if got, w := rows[i][2], fmt.Sprintf("%.6g", want); got != w {
					t.Errorf("%s: tier %s is %s, want %s", kind, a.tier, got, w)
				}
			}
		}
		rows, more := query(t, "-table", "instance_usage", "-where", "tier=nope", "-group", "tier", "-agg", "mean:avg_cpu")
		if len(rows) != 0 || more != 0 {
			t.Fatalf("empty selection printed %d groups (%d more)", len(rows), more)
		}
	})

	// Groups come in first-appearance order with the count, min and max
	// of avg_cpu each tier has in the usage rows.
	t.Run("group_by", func(t *testing.T) {
		for _, kind := range []string{"min", "max"} {
			rows, more := query(t, "-table", "instance_usage", "-group", "tier", "-agg", kind+":avg_cpu", "-limit", "0")
			if len(rows) != len(tiers) || more != 0 {
				t.Fatalf("%s: %d groups (%d more), want %d", kind, len(rows), more, len(tiers))
			}
			for i, a := range tiers {
				want := map[string]float64{"min": a.min, "max": a.max}[kind]
				got := []string{rows[i][0], rows[i][1], rows[i][2]}
				if w := []string{a.tier, strconv.Itoa(a.n), fmt.Sprintf("%.6g", want)}; !slices.Equal(got, w) {
					t.Errorf("%s: group %d is %v, want %v", kind, i, got, w)
				}
			}
		}
	})

	// Every column of every table, named as in its CSV file's header,
	// works as -group, and whatever its type the group counts partition
	// the table: distinct keys, summing to its row count.
	t.Run("group_partition", func(t *testing.T) {
		for _, c := range []struct {
			table string
			rows  int
		}{
			{"collection_events", tr.CollectionEvents.Len()},
			{"instance_events", tr.InstanceEvents.Len()},
			{"instance_usage", tr.UsageRecords.Len()},
			{"machine_events", tr.MachineEvents.Len()},
		} {
			data, err := os.ReadFile(filepath.Join(dir, c.table+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			header, _, _ := strings.Cut(string(data), "\n")
			for _, key := range strings.Split(header, ",") {
				rows, more := query(t, "-table", c.table, "-group", key, "-limit", "0")
				if more != 0 {
					t.Fatalf("%s by %s: %d groups left out at -limit 0", c.table, key, more)
				}
				seen := map[string]bool{}
				total := 0
				for _, r := range rows {
					if seen[r[0]] {
						t.Errorf("%s by %s: key %s printed twice", c.table, key, r[0])
					}
					seen[r[0]] = true
					n, err := strconv.Atoi(r[1])
					if err != nil {
						t.Fatalf("%s by %s: count %q: %v", c.table, key, r[1], err)
					}
					total += n
				}
				if total != c.rows {
					t.Errorf("%s by %s: counts sum to %d, want %d", c.table, key, total, c.rows)
				}
			}
		}
	})

	// The collections view's per-tier counts, and its final column's,
	// come from collection_events: each collection has one SUBMIT row
	// and at most one terminal row.
	t.Run("collection_outcomes", func(t *testing.T) {
		want := map[string]map[string]int{}
		count := func(typ string, tier trace.Tier) {
			if want[typ] == nil {
				want[typ] = map[string]int{}
			}
			want[typ][tier.String()]++
		}
		for _, c := range tr.CollectionInfos() {
			count(trace.EventSubmit.String(), c.Tier)
			if c.FinalEvent != trace.EventSubmit {
				count(c.FinalEvent.String(), c.Tier)
			}
		}
		if len(want) < 2 {
			t.Fatalf("no collection terminated; the check needs one")
		}
		for typ, byTier := range want {
			rows, _ := query(t, "-where", "type="+typ, "-group", "tier", "-limit", "0")
			got := map[string]int{}
			for _, r := range rows {
				got[r[0]], _ = strconv.Atoi(r[1])
			}
			if !maps.Equal(got, byTier) {
				t.Errorf("type=%s by tier: %v, want %v", typ, got, byTier)
			}
		}
	})

	t.Run("where_filter", func(t *testing.T) {
		want := 0
		for ev := range tr.InstanceEvents.All() {
			if ev.Type == trace.EventSchedule {
				want++
			}
		}
		rows, _ := query(t, "-table", "instance_events", "-where", "type=SCHEDULE", "-limit", "0")
		if len(rows) != want {
			t.Fatalf("%d SCHEDULE rows, want %d", len(rows), want)
		}
		for _, r := range rows {
			if r[3] != "SCHEDULE" {
				t.Fatalf("-where type=SCHEDULE kept %v", r)
			}
		}
	})

	// Both modes print every row at -limit 0, and a cutting limit prints
	// that many rows and a footer counting the rest.
	t.Run("limit", func(t *testing.T) {
		for _, mode := range []struct {
			args []string
			rows int
		}{
			{[]string{"-table", "collection_events"}, tr.CollectionEvents.Len()},
			{[]string{"-table", "instance_usage", "-group", "tier"}, len(tiers)},
		} {
			for _, c := range []struct{ limit, rows, more int }{
				{0, mode.rows, 0},
				{1, 1, mode.rows - 1},
				{mode.rows + 5, mode.rows, 0},
			} {
				rows, more := query(t, append(mode.args, "-limit", strconv.Itoa(c.limit))...)
				if len(rows) != c.rows || more != c.more {
					t.Errorf("%v -limit %d: %d rows and %d more, want %d and %d",
						mode.args, c.limit, len(rows), more, c.rows, c.more)
				}
			}
		}
	})

	// A query reads only its table: machine_events answers from a
	// directory that holds no other table.
	t.Run("reads_only_its_table", func(t *testing.T) {
		lone := t.TempDir()
		name := trace.MachineEventsTable.Name() + ".csv"
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(lone, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(lone, trace.UsageTable.Name()+".csv")); !os.IsNotExist(err) {
			t.Fatalf("the lone directory holds %s (%v)", trace.UsageTable.Name(), err)
		}
		var out bytes.Buffer
		if err := run(&out, []string{"-trace", lone, "-table", "machine_events", "-group", "platform", "-limit", "0"}); err != nil {
			t.Fatal(err)
		}
		var whole bytes.Buffer
		if err := run(&whole, []string{"-trace", dir, "-table", "machine_events", "-group", "platform", "-limit", "0"}); err != nil {
			t.Fatal(err)
		}
		if out.String() != whole.String() {
			t.Fatalf("lone table gives\n%s\nthe whole trace gives\n%s", out.String(), whole.String())
		}
	})

	// The header names the columns, a cut prints a footer counting the
	// rows left out, and an uncut table prints none.
	t.Run("format", func(t *testing.T) {
		var b bytes.Buffer
		if err := run(&b, []string{"-trace", dir, "-where", "tier=prod", "-limit", "1"}); err != nil {
			t.Fatal(err)
		}
		prod := 0
		for ev := range tr.CollectionEvents.All() {
			if ev.Tier == trace.TierProduction {
				prod++
			}
		}
		if prod < 2 {
			t.Fatalf("%d prod collection events; the check needs two", prod)
		}
		out := b.String()
		if !strings.Contains(out, "tier") || !strings.Contains(out, "prod") {
			t.Fatalf("output lacks the tier header or a prod row:\n%s", out)
		}
		if want := fmt.Sprintf("... (%d more rows)", prod-1); !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
		b.Reset()
		if err := run(&b, []string{"-trace", dir, "-where", "tier=prod", "-limit", "0"}); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(), "more rows") {
			t.Fatalf("an uncut table printed a footer:\n%s", b.String())
		}
	})
}

func TestRunNeedsTrace(t *testing.T) {
	if err := run(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("run accepted a missing -trace")
	}
	if err := run(&bytes.Buffer{}, []string{"-trace", t.TempDir() + "/absent"}); err == nil {
		t.Fatal("run accepted a missing trace directory")
	}
}
