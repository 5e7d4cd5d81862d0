// Package tracetest holds test helpers for retained traces: it compares
// them, validates them and writes them to disk.
package tracetest

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/trace"
)

// RowsEqual reports whether two tables hold deeply equal rows in the same
// order, whatever their chunk layout.
func RowsEqual[T any](a, b *trace.Rows[T]) bool {
	return reflect.DeepEqual(slices.Collect(a.All()), slices.Collect(b.All()))
}

// Diff returns "" when two traces hold equal rows in every table, or else
// names the first table that differs, with both row counts.
func Diff(a, b *trace.MemTrace) string {
	differs := func(table string, na, nb int) string {
		return fmt.Sprintf("%s differ (%d vs %d rows)", table, na, nb)
	}
	switch {
	case !RowsEqual(&a.CollectionEvents, &b.CollectionEvents):
		return differs("collection events", a.CollectionEvents.Len(), b.CollectionEvents.Len())
	case !RowsEqual(&a.InstanceEvents, &b.InstanceEvents):
		return differs("instance events", a.InstanceEvents.Len(), b.InstanceEvents.Len())
	case !RowsEqual(&a.UsageRecords, &b.UsageRecords):
		return differs("usage records", a.UsageRecords.Len(), b.UsageRecords.Len())
	case !RowsEqual(&a.MachineEvents, &b.MachineEvents):
		return differs("machine events", a.MachineEvents.Len(), b.MachineEvents.Len())
	}
	return ""
}

// Validate replays a retained trace through a fresh trace.Validator and
// returns its violations.
func Validate(t *trace.MemTrace) []trace.Violation {
	v := trace.NewValidator()
	t.Replay(v)
	return v.Finish()
}

// WriteDir writes a retained trace into dir in the layout a DirSink
// streams, creating dir if needed.
func WriteDir(t *trace.MemTrace, dir string) error {
	s, err := trace.NewDirSink(dir, t.Meta)
	if err != nil {
		return err
	}
	t.Replay(s)
	return s.Close()
}
