package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// treeHash is the SHA-256 over every file under dir in lexical path
// order, each framed by its slash-separated relative path and length.
func treeHash(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExportTreeByteIdentical pins the -export path: at the same seed the
// CSV shard tree and the report are byte-identical at parallelism 1 and
// 8, and the tree hashes to a pinned value. A usage batch that splits,
// reorders or drops a row, or a shard that loses its buffered tail,
// moves the hash.
func TestExportTreeByteIdentical(t *testing.T) {
	const wantTree = "1bb10674cda71ec9352284692bc8b5fc726a5a2ac18872b50fe0124a524ce3d7"
	sc := Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
		Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 11}

	var firstReport []byte
	for _, par := range []int{1, 8} {
		sc.Parallelism = par
		dir := t.TempDir()
		s, err := RunSuiteStreaming(sc, StreamingOptions{ExportDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := treeHash(t, dir); got != wantTree {
			t.Fatalf("parallelism %d: export tree sha256 %s, want %s", par, got, wantTree)
		}
		var report bytes.Buffer
		if err := s.WriteReport(&report); err != nil {
			t.Fatal(err)
		}
		if report.Len() == 0 {
			t.Fatal("empty report")
		}
		if firstReport == nil {
			firstReport = report.Bytes()
		} else if !bytes.Equal(firstReport, report.Bytes()) {
			t.Fatalf("parallelism %d: report differs from parallelism 1", par)
		}
	}
}
