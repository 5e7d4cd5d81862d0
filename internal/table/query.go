package table

import (
	"fmt"
	"math"
)

// Predicate decides whether a row of a table is selected.
type Predicate func(t *Table, row int) bool

// EqString selects rows whose string column equals v.
func EqString(col, v string) Predicate {
	return func(t *Table, row int) bool { return t.Strings(col)[row] == v }
}

// Query is a lazy scan over a table: a selection of row indexes plus
// pending transforms, executed when a terminal method is called.
type Query struct {
	t   *Table
	idx []int
}

// From starts a query selecting every row of t.
func From(t *Table) *Query {
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	return &Query{t: t, idx: idx}
}

// Where filters the selection.
func (q *Query) Where(p Predicate) *Query {
	out := q.idx[:0:0]
	for _, r := range q.idx {
		if p(q.t, r) {
			out = append(out, r)
		}
	}
	return &Query{t: q.t, idx: out}
}

// Limit truncates the selection to at most n rows.
func (q *Query) Limit(n int) *Query {
	if n < 0 {
		n = 0
	}
	if n > len(q.idx) {
		n = len(q.idx)
	}
	return &Query{t: q.t, idx: q.idx[:n]}
}

// Materialize copies the selection into a new standalone table.
func (q *Query) Materialize() *Table {
	out := New(q.t.cols...)
	for _, r := range q.idx {
		vals := make([]any, len(q.t.cols))
		for c := range q.t.cols {
			vals[c] = q.t.value(c, r)
		}
		out.Append(vals...)
	}
	return out
}

// Agg is an aggregation over a group of rows.
type Agg struct {
	// Name of the output column.
	Name string
	// Col is the input column ("" for Count).
	Col string
	// Kind selects the aggregation function.
	Kind AggKind
}

// AggKind enumerates supported aggregation functions.
type AggKind int

// Aggregation kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMean
	AggMin
	AggMax
)

// Count is an Agg counting rows per group.
func Count(name string) Agg { return Agg{Name: name, Kind: AggCount} }

// Sum aggregates the sum of a float column.
func Sum(name, col string) Agg { return Agg{Name: name, Col: col, Kind: AggSum} }

// Mean aggregates the mean of a float column.
func Mean(name, col string) Agg { return Agg{Name: name, Col: col, Kind: AggMean} }

// Min aggregates the minimum of a float column.
func Min(name, col string) Agg { return Agg{Name: name, Col: col, Kind: AggMin} }

// Max aggregates the maximum of a float column.
func Max(name, col string) Agg { return Agg{Name: name, Col: col, Kind: AggMax} }

// GroupBy groups the selection by the named key columns and computes the
// aggregations, returning a new table with one row per group. Key columns
// keep their types; aggregate columns are float64 except counts (int64).
// Groups are emitted in first-appearance order.
func (q *Query) GroupBy(keys []string, aggs ...Agg) *Table {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = q.t.colIndex(k)
	}

	outCols := make([]Column, 0, len(keys)+len(aggs))
	for _, k := range keys {
		outCols = append(outCols, q.t.cols[q.t.colIndex(k)])
	}
	for _, a := range aggs {
		typ := Float64
		if a.Kind == AggCount {
			typ = Int64
		}
		outCols = append(outCols, Column{Name: a.Name, Type: typ})
	}

	type groupState struct {
		ord    int
		count  int64
		sums   []float64
		mins   []float64
		maxs   []float64
		sample []any // key values
	}
	groups := make(map[string]*groupState)
	var order []*groupState

	for _, r := range q.idx {
		// Build a composite key string; '\x00' separators keep distinct
		// tuples distinct.
		key := ""
		for _, ci := range keyIdx {
			key += fmt.Sprintf("%v\x00", q.t.value(ci, r))
		}
		g, ok := groups[key]
		if !ok {
			g = &groupState{
				ord:  len(order),
				sums: make([]float64, len(aggs)),
				mins: make([]float64, len(aggs)),
				maxs: make([]float64, len(aggs)),
			}
			for i := range aggs {
				g.mins[i] = math.Inf(1)
				g.maxs[i] = math.Inf(-1)
			}
			g.sample = make([]any, len(keyIdx))
			for i, ci := range keyIdx {
				g.sample[i] = q.t.value(ci, r)
			}
			groups[key] = g
			order = append(order, g)
		}
		g.count++
		for i, a := range aggs {
			if a.Kind == AggCount {
				continue
			}
			v := q.t.Floats(a.Col)[r]
			g.sums[i] += v
			if v < g.mins[i] {
				g.mins[i] = v
			}
			if v > g.maxs[i] {
				g.maxs[i] = v
			}
		}
	}

	out := New(outCols...)
	for _, g := range order {
		vals := make([]any, 0, len(outCols))
		vals = append(vals, g.sample...)
		for i, a := range aggs {
			switch a.Kind {
			case AggCount:
				vals = append(vals, g.count)
			case AggSum:
				vals = append(vals, g.sums[i])
			case AggMean:
				vals = append(vals, g.sums[i]/float64(g.count))
			case AggMin:
				vals = append(vals, g.mins[i])
			case AggMax:
				vals = append(vals, g.maxs[i])
			}
		}
		out.Append(vals...)
	}
	return out
}
