package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tableFiles are the four CSV tables in ReadDir's read order.
var tableFiles = []string{collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile}

// FuzzReadDir writes arbitrary bytes as the four CSV tables beside a
// valid meta.json. ReadDir must return an error or a trace, and never
// panic or hang. A trace it returns must read back equal after a round
// trip through WriteDir, which writes the usage table through
// DirSink.UsageBatch: writing the re-read trace gives the same bytes
// again. Bytes are the comparison because a NaN field never compares
// equal to itself.
func FuzzReadDir(f *testing.F) {
	seed := f.TempDir()
	if err := WriteDir(newTestTrace(), seed); err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(seed, metaFile))
	if err != nil {
		f.Fatal(err)
	}
	tables := make([][]byte, len(tableFiles))
	for i, name := range tableFiles {
		if tables[i], err = os.ReadFile(filepath.Join(seed, name)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(tables[0], tables[1], tables[2], tables[3])
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, coll, inst, usage, mach []byte) {
		dir := t.TempDir()
		files := map[string][]byte{metaFile: meta,
			collectionEventsFile: coll, instanceEventsFile: inst, usageFile: usage, machineEventsFile: mach}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := ReadDir(dir)
		if err != nil {
			return
		}
		first, second := t.TempDir(), t.TempDir()
		if err := WriteDir(tr, first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDir(first)
		if err != nil {
			t.Fatalf("reading back a written trace: %v", err)
		}
		if back.Counts() != tr.Counts() {
			t.Fatalf("read back %s, wrote %s", back.Counts(), tr.Counts())
		}
		if err := WriteDir(back, second); err != nil {
			t.Fatal(err)
		}
		for _, name := range tableFiles {
			a, errA := os.ReadFile(filepath.Join(first, name))
			b, errB := os.ReadFile(filepath.Join(second, name))
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s changed across a write/read round trip:\n%q\n%q", name, a, b)
			}
		}
	})
}
