package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace/tracetest"
	"repro/internal/workload"
)

// TestRun queries a small stored trace. Good queries print a table; a
// flag naming a missing column, or a column of a type the flag cannot
// use, returns an error naming the column instead of panicking.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	tr := core.Run(workload.Profile2019("b", 20), core.Options{Horizon: 2 * sim.Hour, Seed: 7}).Trace
	if err := tracetest.WriteDir(tr, dir); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string // a substring of the output, or of the error when bad
		bad  bool
	}{
		{"collections", nil, "priority", false},
		{"where", []string{"-where", "tier=prod"}, "prod", false},
		{"group", []string{"-table", "usage", "-group", "tier", "-agg", "sum:avg_cpu"}, "sum_avg_cpu", false},
		{"instances agg int column", []string{"-table", "instances", "-group", "type", "-agg", "max:machine"}, `"machine" is int64`, true},
		{"agg int column", []string{"-group", "tier", "-agg", "sum:priority"}, `-agg column "priority" is int64, want float64`, true},
		{"where int column", []string{"-where", "priority=3"}, `-where column "priority" is int64, want string`, true},
		{"unknown group", []string{"-group", "bogus"}, `-group: unknown column "bogus"`, true},
		{"unknown where", []string{"-where", "bogus=1"}, `-where: unknown column "bogus"`, true},
		{"unknown agg column", []string{"-table", "usage", "-group", "tier", "-agg", "mean:bogus"}, `-agg: unknown column "bogus"`, true},
		{"unknown agg kind", []string{"-table", "usage", "-group", "tier", "-agg", "median:avg_cpu"}, `unknown aggregation "median"`, true},
		{"malformed agg", []string{"-group", "tier", "-agg", "sum"}, `bad -agg "sum"`, true},
		{"malformed where", []string{"-where", "tier"}, `bad -where "tier"`, true},
		{"unknown table", []string{"-table", "bogus"}, `unknown table "bogus"`, true},
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
}

func TestRunNeedsTrace(t *testing.T) {
	if err := run(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("run accepted a missing -trace")
	}
	if err := run(&bytes.Buffer{}, []string{"-trace", t.TempDir() + "/absent"}); err == nil {
		t.Fatal("run accepted a missing trace directory")
	}
}
