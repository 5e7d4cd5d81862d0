package workload

import (
	"bytes"
	"maps"
	"math"
	"testing"
)

// FuzzParseArrival: any spec must give an error or a value whose String
// parses back to an equal value — the same process, knobs and string —
// never a panic. Every accepted knob is positive and finite.
func FuzzParseArrival(f *testing.F) {
	for _, spec := range []string{
		"", "poisson", "gamma", "weibull", "cohorts",
		"gamma:cv=2", "weibull:cv=0.5", "cohorts:k=40,skew=1.5,cv=2", "cohorts:k=40+skew=1.5+cv=2",
		" gamma : cv = 2 ,", "gamma:cv=-1", "gamma:cv=NaN", "weibull:cv=Inf", "poisson:cv=2", "cohorts:k",
	} {
		f.Add(spec)
	}

	name := func(s ArrivalSpec) string {
		if s.Name == "" {
			return "poisson"
		}
		return s.Name
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseArrival(spec)
		if err != nil {
			return
		}
		if _, ok := arrivalRegistry[name(s)]; !ok {
			t.Fatalf("ParseArrival(%q) accepted unregistered process %q", spec, s.Name)
		}
		for knob, v := range s.Knobs {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("ParseArrival(%q) accepted %s=%g", spec, knob, v)
			}
		}
		back, err := ParseArrival(s.String())
		if err != nil {
			t.Fatalf("ParseArrival(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		if name(back) != name(s) || back.String() != s.String() || !maps.Equal(back.Knobs, s.Knobs) {
			t.Fatalf("ParseArrival(%q) = %+v, but its String %q parses to %+v", spec, s, s.String(), back)
		}
	})
}

// FuzzReadRecording: any bytes must give an error or a Recording whose
// WriteTo output reads back and writes out as the same bytes, never a
// panic, a hang or an allocation sized by a count the input claims.
func FuzzReadRecording(f *testing.F) {
	rec := recordCell(f, "", 1<<32, 7)
	rec.Arrivals = rec.Arrivals[:3]
	var seed bytes.Buffer
	if _, err := rec.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	header := func(cell, arrivals string) string {
		return "borgworkload/1\ncell " + cell + "\nera 1\nmachines 1\nhorizon 1\nseed 1\narrival poisson\nidbase 0\narrivals " + arrivals + "\n"
	}
	f.Add([]byte(header("a", "1000000000000")))
	f.Add([]byte(header(`"a\nb"`, "0")))
	f.Add([]byte(header("a", "1") + "A 5 1\nJ 1 0 200 0 \"u\\x20v\" 0 0 0 0 0 0 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := rec.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written recording: %v\n%q", err, first.Bytes())
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("recording changed across a write/read round trip:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
