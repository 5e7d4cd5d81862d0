package cliflags

import (
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
