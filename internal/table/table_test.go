package table

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := New(
		Column{"tier", String},
		Column{"cpu", Float64},
		Column{"tasks", Int64},
	)
	t.Append("prod", 0.5, int64(3))
	t.Append("beb", 1.5, int64(100))
	t.Append("prod", 0.25, int64(1))
	t.Append("free", 0.1, int64(7))
	t.Append("beb", 2.5, int64(50))
	return t
}

// count returns the number of rows a query selects, read off the table
// it materializes.
func count(q *Query) int { return q.Materialize().rows }

func TestAppendAndAccessors(t *testing.T) {
	tb := sample()
	if n := count(From(tb)); n != 5 {
		t.Fatalf("rows %d", n)
	}
	if len(tb.Columns()) != 3 {
		t.Fatal("columns")
	}
	if tb.Strings("tier")[1] != "beb" {
		t.Fatal("string column")
	}
	if tb.Floats("cpu")[4] != 2.5 {
		t.Fatal("float column")
	}
	if tb.Ints("tasks")[0] != 3 {
		t.Fatal("int column")
	}
}

func TestSchemaPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dup column", func() { New(Column{"a", Int64}, Column{"a", String}) })
	mustPanic("empty name", func() { New(Column{"", Int64}) })
	tb := sample()
	mustPanic("arity", func() { tb.Append("x", 1.0) })
	mustPanic("type", func() { tb.Append("x", "not-a-float", int64(1)) })
	mustPanic("unknown col", func() { tb.Floats("nope") })
	mustPanic("wrong type access", func() { tb.Ints("cpu") })
}

func TestWhereAndCount(t *testing.T) {
	tb := sample()
	n := count(From(tb).Where(EqString("tier", "prod")))
	if n != 2 {
		t.Fatalf("prod rows %d", n)
	}
	big := func(t *Table, row int) bool { return t.Floats("cpu")[row] > 2 }
	n = count(From(tb).Where(EqString("tier", "beb")).Where(big))
	if n != 1 {
		t.Fatalf("chained rows %d", n)
	}
	n = count(From(tb).Where(EqString("tier", "nope")))
	if n != 0 {
		t.Fatalf("no-match rows %d", n)
	}
}

// TestAggregates: grouping by no key aggregates the whole selection in
// one row, and an empty selection has no group.
func TestAggregates(t *testing.T) {
	tb := sample()
	g := From(tb).GroupBy(nil, Sum("s", "cpu"), Mean("m", "cpu"))
	if got := g.Floats("s"); len(got) != 1 || math.Abs(got[0]-4.85) > 1e-12 {
		t.Fatalf("sum %v", got)
	}
	if got := g.Floats("m"); math.Abs(got[0]-0.97) > 1e-12 {
		t.Fatalf("mean %v", got)
	}
	empty := From(tb).Where(EqString("tier", "nope")).GroupBy(nil, Mean("m", "cpu"))
	if n := count(From(empty)); n != 0 {
		t.Fatalf("empty selection has %d groups", n)
	}
}

func TestLimit(t *testing.T) {
	tb := sample()
	limited := From(tb).Limit(2).Materialize().Floats("cpu")
	if len(limited) != 2 || limited[1] != 1.5 {
		t.Fatalf("limit %v", limited)
	}
	if got := count(From(tb).Limit(-1)); got != 0 {
		t.Fatalf("negative limit %d", got)
	}
	if got := count(From(tb).Limit(99)); got != 5 {
		t.Fatalf("over-limit %d", got)
	}
}

func TestIntAndStringCol(t *testing.T) {
	sel := From(sample()).Where(EqString("tier", "beb")).Materialize()
	ints := sel.Ints("tasks")
	if len(ints) != 2 || ints[0] != 100 || ints[1] != 50 {
		t.Fatalf("int col %v", ints)
	}
	if tiers := sel.Strings("tier"); len(tiers) != 2 || tiers[0] != "beb" || tiers[1] != "beb" {
		t.Fatalf("string col %v", tiers)
	}
}

func TestGroupBy(t *testing.T) {
	tb := sample()
	g := From(tb).GroupBy([]string{"tier"},
		Count("n"), Sum("cpu_sum", "cpu"), Mean("cpu_mean", "cpu"),
		Min("cpu_min", "cpu"), Max("cpu_max", "cpu"))
	if n := count(From(g)); n != 3 {
		t.Fatalf("groups %d", n)
	}
	// First-appearance order: prod, beb, free.
	tiers := g.Strings("tier")
	if tiers[0] != "prod" || tiers[1] != "beb" || tiers[2] != "free" {
		t.Fatalf("group order %v", tiers)
	}
	if g.Ints("n")[1] != 2 {
		t.Fatalf("beb count %d", g.Ints("n")[1])
	}
	if math.Abs(g.Floats("cpu_sum")[1]-4.0) > 1e-12 {
		t.Fatalf("beb sum %v", g.Floats("cpu_sum")[1])
	}
	if math.Abs(g.Floats("cpu_mean")[0]-0.375) > 1e-12 {
		t.Fatalf("prod mean %v", g.Floats("cpu_mean")[0])
	}
	if g.Floats("cpu_min")[1] != 1.5 || g.Floats("cpu_max")[1] != 2.5 {
		t.Fatal("beb min/max")
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	tb := New(Column{"a", String}, Column{"b", Int64}, Column{"v", Float64})
	tb.Append("x", int64(1), 1.0)
	tb.Append("x", int64(2), 2.0)
	tb.Append("x", int64(1), 3.0)
	g := From(tb).GroupBy([]string{"a", "b"}, Sum("s", "v"))
	if n := count(From(g)); n != 2 {
		t.Fatalf("groups %d", n)
	}
	if g.Floats("s")[0] != 4.0 {
		t.Fatalf("group sum %v", g.Floats("s")[0])
	}
}

func TestMaterialize(t *testing.T) {
	tb := sample()
	m := From(tb).Where(EqString("tier", "prod")).Materialize()
	if n := count(From(m)); n != 2 {
		t.Fatalf("materialized rows %d", n)
	}
	if m.Floats("cpu")[0] != 0.5 {
		t.Fatalf("materialized order %v", m.Floats("cpu"))
	}
	// Appending to the copy must not affect the original.
	m.Append("prod", 9.0, int64(9))
	if n := count(From(tb)); n != 5 {
		t.Fatal("materialize aliased the original")
	}
}

func TestFormat(t *testing.T) {
	tb := sample()
	s := tb.Format(3)
	if !strings.Contains(s, "tier") || !strings.Contains(s, "prod") {
		t.Fatalf("format output:\n%s", s)
	}
	if !strings.Contains(s, "2 more rows") {
		t.Fatalf("format should note truncation:\n%s", s)
	}
	full := tb.Format(0)
	if strings.Contains(full, "more rows") {
		t.Fatalf("full format should not truncate:\n%s", full)
	}
}

// Property: GroupBy counts partition the selection — group counts sum to
// the number of selected rows.
func TestGroupByPartitionProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		tb := New(Column{"k", Int64}, Column{"v", Float64})
		for _, v := range vals {
			tb.Append(int64(v%5), float64(v))
		}
		g := From(tb).GroupBy([]string{"k"}, Count("n"))
		var total int64
		for _, n := range g.Ints("n") {
			total += n
		}
		return total == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Where(p) + Where(!p) partition the rows.
func TestWherePartitionProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		tb := New(Column{"v", Float64})
		for _, v := range vals {
			tb.Append(float64(v))
		}
		p := func(t *Table, row int) bool { return t.Floats("v")[row] > 128 }
		a := count(From(tb).Where(p))
		b := count(From(tb).Where(func(t *Table, row int) bool { return !p(t, row) }))
		return a+b == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGroupBy(b *testing.B) {
	tb := New(Column{"k", Int64}, Column{"v", Float64})
	for i := 0; i < 100000; i++ {
		tb.Append(int64(i%64), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		From(tb).GroupBy([]string{"k"}, Sum("s", "v"), Count("n"))
	}
}
