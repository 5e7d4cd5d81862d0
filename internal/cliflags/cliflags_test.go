package cliflags

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/scheduler"
)

// TestKnobsParseOnce: empty -policy and -arrival leave their knobs nil,
// set ones arrive parsed, and a bad value of either is an error that
// lists the valid set.
func TestKnobsParseOnce(t *testing.T) {
	k, err := parse(t).Knobs()
	if err != nil || k.Policy != nil || k.Arrival != nil {
		t.Fatalf("no flags: knobs %+v, err %v; want nil knobs", k, err)
	}
	k, err = parse(t, "-policy", "best-fit", "-arrival", "cohorts:k=40+skew=1.5").Knobs()
	if err != nil {
		t.Fatal(err)
	}
	if k.Policy == nil || *k.Policy != scheduler.BestFit {
		t.Fatalf("-policy best-fit parsed to %v", k.Policy)
	}
	if k.Arrival == nil || k.Arrival.Name != "cohorts" || k.Arrival.Knobs["k"] != 40 || k.Arrival.String() != "cohorts:k=40+skew=1.5" {
		t.Fatalf("-arrival parsed to %+v", k.Arrival)
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-policy", "bestfit", "least-allocated"},
		{"-arrival", "gama:cv=2", "poisson"},
		{"-arrival", "gamma:k=2", "cv"},
	} {
		if _, err := parse(t, tc.flag, tc.value).Knobs(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %q: error %v, want one listing %q", tc.flag, tc.value, err, tc.want)
		}
	}
}

// TestSetGCTarget: SetGCTarget raises the GC target to gcPercent, and
// leaves it alone when GOGC or GOMEMLIMIT is set in the environment;
// Register never touches it.
func TestSetGCTarget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	parse(t)
	if got := debug.SetGCPercent(100); got != 100 {
		t.Errorf("GC percent %d after Register, want it untouched (100)", got)
	}
	for _, tc := range []struct {
		gogc, memlimit string
		want           int
	}{
		{"", "", gcPercent},
		{"150", "", 100},
		{"", "1GiB", 100},
	} {
		t.Setenv("GOGC", tc.gogc)
		t.Setenv("GOMEMLIMIT", tc.memlimit)
		debug.SetGCPercent(100)
		SetGCTarget()
		if got := debug.SetGCPercent(100); got != tc.want {
			t.Errorf("GOGC=%q GOMEMLIMIT=%q: GC percent %d after SetGCTarget, want %d", tc.gogc, tc.memlimit, got, tc.want)
		}
	}
}
