// Package table is a small in-memory columnar table engine — the
// reproduction's stand-in for BigQuery (§3, §9 "Using BigQuery"). The
// paper's analyses are single-pass scans with filters, group-bys and
// aggregations; this engine expresses exactly those, over typed columns,
// without any external dependency.
package table

import (
	"fmt"
	"strings"
)

// ColType is a column's value type.
type ColType int

// Column types.
const (
	Int64 ColType = iota
	Float64
	String
)

// String names the type.
func (c ColType) String() string {
	switch c {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(c))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Type ColType
}

// Table is an immutable-schema, append-only columnar table.
type Table struct {
	cols    []Column
	byName  map[string]int
	ints    map[int][]int64
	floats  map[int][]float64
	strings map[int][]string
	rows    int
}

// New creates an empty table with the given schema. Duplicate or empty
// column names panic: schemas are static program data, not user input.
func New(cols ...Column) *Table {
	t := &Table{
		cols:    cols,
		byName:  make(map[string]int, len(cols)),
		ints:    make(map[int][]int64),
		floats:  make(map[int][]float64),
		strings: make(map[int][]string),
	}
	for i, c := range cols {
		if c.Name == "" {
			panic("table: empty column name")
		}
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("table: duplicate column %q", c.Name))
		}
		t.byName[c.Name] = i
	}
	return t
}

// Columns returns the schema.
func (t *Table) Columns() []Column { return t.cols }

func (t *Table) colIndex(name string) int {
	i, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("table: unknown column %q", name))
	}
	return i
}

// Append adds one row. Values must match the schema's arity and types
// (int64, float64 or string per column); mismatches panic, because rows are
// produced by adapters under our control.
func (t *Table) Append(values ...any) {
	if len(values) != len(t.cols) {
		panic(fmt.Sprintf("table: row arity %d != schema arity %d", len(values), len(t.cols)))
	}
	for i, v := range values {
		switch t.cols[i].Type {
		case Int64:
			x, ok := v.(int64)
			if !ok {
				panic(fmt.Sprintf("table: column %q expects int64, got %T", t.cols[i].Name, v))
			}
			t.ints[i] = append(t.ints[i], x)
		case Float64:
			x, ok := v.(float64)
			if !ok {
				panic(fmt.Sprintf("table: column %q expects float64, got %T", t.cols[i].Name, v))
			}
			t.floats[i] = append(t.floats[i], x)
		case String:
			x, ok := v.(string)
			if !ok {
				panic(fmt.Sprintf("table: column %q expects string, got %T", t.cols[i].Name, v))
			}
			t.strings[i] = append(t.strings[i], x)
		}
	}
	t.rows++
}

// Ints returns the backing slice of an int64 column.
func (t *Table) Ints(name string) []int64 {
	i := t.colIndex(name)
	if t.cols[i].Type != Int64 {
		panic(fmt.Sprintf("table: column %q is %v, not int64", name, t.cols[i].Type))
	}
	return t.ints[i]
}

// Floats returns the backing slice of a float64 column.
func (t *Table) Floats(name string) []float64 {
	i := t.colIndex(name)
	if t.cols[i].Type != Float64 {
		panic(fmt.Sprintf("table: column %q is %v, not float64", name, t.cols[i].Type))
	}
	return t.floats[i]
}

// Strings returns the backing slice of a string column.
func (t *Table) Strings(name string) []string {
	i := t.colIndex(name)
	if t.cols[i].Type != String {
		panic(fmt.Sprintf("table: column %q is %v, not string", name, t.cols[i].Type))
	}
	return t.strings[i]
}

// value returns the row'th value of column i as any.
func (t *Table) value(col, row int) any {
	switch t.cols[col].Type {
	case Int64:
		return t.ints[col][row]
	case Float64:
		return t.floats[col][row]
	default:
		return t.strings[col][row]
	}
}

// Format renders the table as an aligned text block (up to maxRows rows).
func (t *Table) Format(maxRows int) string {
	var b strings.Builder
	widths := make([]int, len(t.cols))
	header := make([]string, len(t.cols))
	for i, c := range t.cols {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	n := t.rows
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	cells := make([][]string, n)
	for r := 0; r < n; r++ {
		cells[r] = make([]string, len(t.cols))
		for c := range t.cols {
			s := fmt.Sprintf("%v", t.value(c, r))
			if t.cols[c].Type == Float64 {
				s = fmt.Sprintf("%.6g", t.floats[c][r])
			}
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	writeRow := func(row []string) {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	if n < t.rows {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.rows-n)
	}
	return b.String()
}
