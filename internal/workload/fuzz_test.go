package workload

import (
	"bytes"
	"maps"
	"math"
	"os"
	"path/filepath"
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

// FuzzReadRecording writes arbitrary bytes as jobs.csv and tasks.csv
// beside a valid meta.json. ReadRecordingDir must return an error or a
// Recording, never panic or hang, and a Recording it returns must write,
// read back and write out as the same bytes.
func FuzzReadRecording(f *testing.F) {
	rec := recordCell(f, "", 1<<32, 7)
	rec.Arrivals = rec.Arrivals[:3]
	seed := f.TempDir()
	if err := rec.WriteDir(seed); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(seed, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	meta, jobs, tasks := read("meta.json"), read("jobs.csv"), read("tasks.csv")
	jobsHeader, _, _ := bytes.Cut(jobs, []byte("\n"))
	tasksHeader, _, _ := bytes.Cut(tasks, []byte("\n"))
	jobsHeader, tasksHeader = append(jobsHeader, '\n'), append(tasksHeader, '\n')
	f.Add(jobs, tasks)
	f.Add([]byte{}, []byte{})
	f.Add(jobsHeader, tasksHeader)
	// A user name that needs CSV quoting, and two arrivals at one instant.
	f.Add(append(jobsHeader, "0,5,1,job,200,free,\"u \"\"v\"\",\nw\",0,0,default,none,finish,0\n"+
		"1,5,2,alloc_set,200,prod,u,0,0,batch,full,kill,7\n"...),
		append(tasksHeader, "1,0,0.1,0.1,5,0,0.05,0.05,1.2\n2,0,1e-300,0,5,3,0,0,1\n"...))

	f.Fuzz(func(t *testing.T, jobs, tasks []byte) {
		rec, err := ReadRecordingDir(writeRecordingFiles(t, meta, jobs, tasks))
		if err != nil {
			return
		}
		first := t.TempDir()
		if err := rec.WriteDir(first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRecordingDir(first)
		if err != nil {
			t.Fatalf("reading back a written recording: %v", err)
		}
		second := t.TempDir()
		if err := back.WriteDir(second); err != nil {
			t.Fatal(err)
		}
		if a, b := readRecordingFiles(t, first), readRecordingFiles(t, second); !bytes.Equal(a, b) {
			t.Fatalf("recording changed across a write/read round trip:\n%q\n%q", a, b)
		}
	})
}
