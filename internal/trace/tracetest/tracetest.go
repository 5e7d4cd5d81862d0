// Package tracetest compares retained traces in tests.
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
