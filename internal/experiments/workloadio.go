package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// WorkloadFileName names cell i's recording file within a workload
// directory (index 0 is the 2011 cell, then 2019 a–h — the SuiteSpecs
// order).
func WorkloadFileName(i int, cell string) string {
	return fmt.Sprintf("workload-%d-%s.rec", i, cell)
}

// SaveWorkloads writes a recorded suite's workloads — one versioned
// recording file per cell — into dir (created if missing). results must
// come from a run with Scale.RecordWorkload set; a cell without a
// recording is an error, not a silent skip.
func SaveWorkloads(dir string, results []core.CellResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range results {
		res := &results[i]
		if res.Workload == nil {
			return fmt.Errorf("experiments: cell %d (%s) has no workload recording — run with RecordWorkload set",
				i, res.Profile.Name)
		}
		path := filepath.Join(dir, WorkloadFileName(i, res.Profile.Name))
		if err := report.WriteFile(path, func(w io.Writer) error {
			_, err := res.Workload.WriteTo(w)
			return err
		}); err != nil {
			return fmt.Errorf("experiments: writing %s: %w", path, err)
		}
	}
	return nil
}

// LoadWorkloads reads the suite's per-cell recordings back from dir,
// index-aligned with SuiteSpecs for the given scale — assign the result
// to Scale.Replay to replay the suite. Every cell's file must exist and
// parse; a partial workload directory is an error.
func LoadWorkloads(dir string, sc Scale) ([]*workload.Recording, error) {
	profiles := SuiteProfiles(sc)
	recs := make([]*workload.Recording, len(profiles))
	for i, p := range profiles {
		path := filepath.Join(dir, WorkloadFileName(i, p.Name))
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: loading workload for cell %d (%s): %w", i, p.Name, err)
		}
		rec, err := workload.ReadRecording(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
		}
		if rec.Meta.Cell != p.Name {
			return nil, fmt.Errorf("experiments: %s records cell %q, want %q", path, rec.Meta.Cell, p.Name)
		}
		recs[i] = rec
	}
	return recs, nil
}
