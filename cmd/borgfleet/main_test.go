package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadSizes: a negative cell count, a median below one
// machine or a horizon that is not positive is an error returned before
// anything is logged, profiled or written. An -hours that is not a
// number or does not fit a sim.Time is named as given, not as the
// garbled duration it would convert to.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cells", "-1"}, "cells"},
		{[]string{"-machines", "0"}, "machines"},
		{[]string{"-hours", "0"}, "horizon"},
		{[]string{"-hours", "-3", "-machines", "-5"}, "machines"},
		{[]string{"-hours", "-3"}, "horizon"},
		{[]string{"-hours", "-1"}, "horizon"},
		{[]string{"-hours", "NaN"}, "-hours NaN: want a positive duration"},
		{[]string{"-hours", "Inf"}, "-hours +Inf: want a positive duration"},
		{[]string{"-hours", "-Inf"}, "-hours -Inf: want a positive duration"},
		{[]string{"-hours", "1e20"}, "-hours 1e+20: want a positive duration"},
	} {
		dir := t.TempDir()
		files := []string{"-cells-csv", "-rollup-csv", "-o", "-cpuprofile", "-metrics"}
		args := append([]string{}, tc.args...)
		for _, f := range files {
			args = append(args, f, filepath.Join(dir, strings.TrimPrefix(f, "-")))
		}
		var stdout, logw bytes.Buffer
		err := run(args, &stdout, &logw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 || logw.Len() != 0 {
			t.Errorf("%v: printed %q and logged %q before rejecting its input", tc.args, stdout.String(), logw.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%v: created %d files before rejecting its input", tc.args, len(entries))
		}
	}
}

// TestRunWritesReport: a valid fleet logs its size, prints its report
// and writes both CSVs.
func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	cellsCSV, rollupCSV := filepath.Join(dir, "cells.csv"), filepath.Join(dir, "rollup.csv")
	var stdout, logw bytes.Buffer
	args := []string{"-cells", "2", "-machines", "10", "-hours", "0.5", "-parallel", "1",
		"-cells-csv", cellsCSV, "-rollup-csv", rollupCSV}
	if err := run(args, &stdout, &logw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logw.String(), "borgfleet: simulating 2 cells (median 10 machines, 0.5h horizon)") {
		t.Errorf("log lacks the fleet size line:\n%s", logw.String())
	}
	if stdout.Len() == 0 {
		t.Error("no report on stdout")
	}
	for _, f := range []string{cellsCSV, rollupCSV} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", f, err)
		}
	}
}
