package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestParseBenchRejectsUncomparable: a NaN or infinite measurement, or a
// negative ns/op, B/op or allocs/op, is an error. Before, NaN ns/op
// parsed, compared false against the tolerance and passed the gate.
func TestParseBenchRejectsUncomparable(t *testing.T) {
	for _, line := range []string{
		"BenchmarkA-8 100 NaN ns/op",
		"BenchmarkA-8 100 12 ns/op 0 B/op NaN allocs/op",
		"BenchmarkA-8 100 +Inf ns/op",
		"BenchmarkA-8 100 12 ns/op -Inf records/window",
		"BenchmarkA-8 100 -12 ns/op",
		"BenchmarkA-8 100 12 ns/op -1 allocs/op",
		"BenchmarkA-8 100 12 ns/op -8 B/op",
	} {
		if _, _, err := parseBench(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q: accepted", line)
		}
	}
	runs, order, err := parseBench(strings.NewReader(
		"goos: linux\nBenchmarkA-8 100 12 ns/op 0 B/op 0 allocs/op 3 records/window\n" +
			"BenchmarkA-8 100 14 ns/op\nBenchmarkB 5 x ns/op\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "BenchmarkA" || len(runs["BenchmarkA"]) != 2 {
		t.Fatalf("order %v, runs %v", order, runs)
	}
	if r := runs["BenchmarkA"][0]; r.nsPerOp != 12 || !r.hasAllocs || r.metrics["records/window"] != 3 {
		t.Fatalf("first run %+v", r)
	}
}

// TestCheckBaselineRejectsUncomparable: a negative baseline would make
// its gate be skipped; NaN and infinities cannot come from JSON but are
// refused the same way.
func TestCheckBaselineRejectsUncomparable(t *testing.T) {
	var base baselineFile
	if err := json.Unmarshal([]byte(`{"benchmarks": {"BenchmarkA": {"after": {"ns_per_op": 12, "allocs_per_op": 0}}}}`), &base); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(base); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		base.Benchmarks["BenchmarkA"].After["ns_per_op"] = v
		if err := checkBaseline(base); err == nil {
			t.Errorf("baseline ns_per_op %v accepted", v)
		}
	}
}

// FuzzParseBench: any input gives an error or runs the gate can compare:
// every value finite, the standard units non-negative, and order listing
// each benchmark once.
func FuzzParseBench(f *testing.F) {
	f.Add([]byte("BenchmarkA-8 100 12 ns/op 0 B/op 0 allocs/op\n"))
	f.Add([]byte("BenchmarkA-8 100 NaN ns/op\nBenchmarkB 1 1e9 ns/op 4 records/window\n"))
	f.Add([]byte("BenchmarkUsagePipeline/batched-2 \t 300 \t 412345 ns/op\nok  \trepro\t1.2s\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, order, err := parseBench(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(order) != len(runs) {
			t.Fatalf("order lists %d benchmarks, runs %d", len(order), len(runs))
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for _, name := range order {
			if len(runs[name]) == 0 {
				t.Fatalf("%s listed with no runs", name)
			}
			for _, r := range runs[name] {
				for _, v := range []float64{r.nsPerOp, r.bytesPerOp, r.allocsPerOp} {
					if !finite(v) || v < 0 {
						t.Fatalf("%s: accepted %v", name, v)
					}
				}
				for unit, v := range r.metrics {
					if !finite(v) {
						t.Fatalf("%s: accepted %v %s", name, v, unit)
					}
				}
			}
		}
	})
}
