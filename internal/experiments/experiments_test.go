package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	suiteOnce sync.Once
	suite     *Suite
)

// tinySuite runs a very small 9-cell suite once and shares it.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		sc := Scale{Name: "tiny", Machines2011: 60, Machines2019: 50,
			Horizon: 6 * sim.Hour, Warmup: 2 * sim.Hour, Seed: 3}
		suite = RunSuite(sc)
	})
	return suite
}

func TestRunSuiteShape(t *testing.T) {
	s := tinySuite(t)
	if s.R2011 == nil || len(s.R2019) != 8 {
		t.Fatalf("suite shape: %v 2019 reducers", len(s.R2019))
	}
	if len(s.Stats) != 9 || len(s.Traces) != 9 {
		t.Fatalf("stats %d, traces %d", len(s.Stats), len(s.Traces))
	}
	for i, tr := range s.Traces {
		want := trace.Era2019
		if i == 0 {
			want = trace.Era2011
		}
		if tr == nil || tr.Meta.Era != want {
			t.Fatalf("cell %d: trace %v, want era %v", i, tr, want)
		}
		if tr.CollectionEvents.Len() == 0 {
			t.Fatalf("cell %d empty", i)
		}
	}
}

func TestCellsHaveDisjointIDs(t *testing.T) {
	s := tinySuite(t)
	seen := map[trace.CollectionID]bool{}
	for _, tr := range s.Traces {
		for _, info := range tr.CollectionInfos() {
			if seen[info.ID] {
				t.Fatalf("collection id %d appears in two cells", info.ID)
			}
			seen[info.ID] = true
		}
	}
}

// TestAllTracesValidate checks the §9 invariants on every cell of the
// small suite as its rows stream past, with no trace retained.
func TestAllTracesValidate(t *testing.T) {
	sc := SmallScale()
	sc.Parallelism = 4
	specs := SuiteSpecs(sc)
	validators := make([]*trace.Validator, len(specs))
	engine.AttachSinks(specs, func(i int) trace.Sink {
		validators[i] = trace.NewValidator()
		return validators[i]
	})
	for i, res := range engine.Run(specs, engine.Options{Parallelism: sc.Parallelism}) {
		if v := validators[i].Finish(); len(v) != 0 {
			t.Fatalf("cell %s: %d violations, first %v", res.Profile.Name, len(v), v[0])
		}
	}
}

func TestWriteReportContainsEveryArtifact(t *testing.T) {
	s := tinySuite(t)
	var b strings.Builder
	if err := s.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2a", "Figure 2b", "Figure 2c", "Figure 2d",
		"Figure 3", "Figure 4a", "Figure 4b", "Figure 4c", "Figure 4d", "Figure 5",
		"Figure 6", "Figure 7", "§5.1", "§5.2", "Figure 8", "Figure 9",
		"Figure 10", "Figure 11", "Table 2 (2011)", "Table 2 (2019)",
		"Figure 12", "Figure 13", "Figure 14",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Spot-check paper reference values are present as annotations.
	for _, want := range []string{"3.7x", "0.97", "96.6%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing paper annotation %q", want)
		}
	}
}

func TestScalesAreOrdered(t *testing.T) {
	small, def, large := SmallScale(), DefaultScale(), LargeScale()
	if !(small.Machines2019 < def.Machines2019 && def.Machines2019 < large.Machines2019) {
		t.Fatal("machine scaling not monotone")
	}
	if !(small.Horizon < def.Horizon && def.Horizon < large.Horizon) {
		t.Fatal("horizon scaling not monotone")
	}
	if small.Warmup >= small.Horizon {
		t.Fatal("warmup must be below horizon")
	}
}

func TestRateNormalization(t *testing.T) {
	s := tinySuite(t)
	for _, r := range s.R2019 {
		if got := rateNormalization(r); got != 12000.0/50 {
			t.Fatalf("2019 cell %s normalization %v", r.Meta().Cell, got)
		}
	}
	if got := rateNormalization(s.R2011); got != 12000.0/60 {
		t.Fatalf("2011 normalization %v", got)
	}
}
