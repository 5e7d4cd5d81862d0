package trace

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// rampRows is the number of rows the ramp's chunks hold.
const rampRows = (1<<(maxChunkShift-minChunkShift) - 1) << minChunkShift

// collect flattens a table for comparison with a reference slice.
func collect[T any](r *Rows[T]) []T { return slices.Collect(r.All()) }

// TestRowsMatchFlatSlice fills a table past the chunk ramp into several
// fixed-size chunks, by single appends and by batches (one of which
// straddles the boundary between a ramp chunk and the next), and checks
// every read path against a flat reference slice. A stored row must
// never move: the first row's address is the same at the end.
func TestRowsMatchFlatSlice(t *testing.T) {
	var r Rows[int]
	var want []int
	next := 0
	appendOne := func() {
		r.Append(next)
		want = append(want, next)
		next++
	}
	appendBatch := func(n int) {
		batch := make([]int, n)
		for i := range batch {
			batch[i] = next
			next++
		}
		r.AppendSlice(batch)
		want = append(want, batch...)
		clear(batch) // the table holds its own copy
	}

	check := func(stage string) {
		t.Helper()
		if r.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", stage, r.Len(), len(want))
		}
		if got := collect(&r); !slices.Equal(got, want) {
			t.Fatalf("%s: All differs from the reference", stage)
		}
		var flat []int
		for chunk := range r.Chunks() {
			if len(chunk) == 0 {
				t.Fatalf("%s: empty chunk yielded", stage)
			}
			flat = append(flat, chunk...)
		}
		if !slices.Equal(flat, want) {
			t.Fatalf("%s: Chunks differ from the reference", stage)
		}
	}

	check("empty")
	appendOne()
	first := &r.chunks[0][0]
	for range 20 {
		appendOne()
	}
	check("second chunk")
	appendBatch(16 + 32 + 11 - r.Len()) // ends 11 rows into the third chunk
	check("straddling batch")
	appendBatch(0)
	for r.Len() < rampRows+3 {
		appendOne()
	}
	check("past the ramp")
	appendBatch(2*(1<<maxChunkShift) + 7) // spans three fixed chunks
	for range 100 {
		appendOne()
	}
	check("fixed chunks")
	if &r.chunks[0][0] != first || r.chunks[0][0] != 0 {
		t.Fatal("the first row moved")
	}
	for c, chunk := range r.chunks {
		if cap(chunk) != r.chunkCap(c) {
			t.Fatalf("chunk %d has capacity %d, want %d", c, cap(chunk), r.chunkCap(c))
		}
	}

	// Early exit from either iterator stops the walk.
	n := 0
	for range r.All() {
		if n++; n == 3 {
			break
		}
	}
	for range r.Chunks() {
		break
	}
}

// TestNewRowsCapsChunks: a table made by NewRows ramps up like the zero
// value's and then stops at its own cap, rounded down to a power of two
// inside the zero value's bounds.
func TestNewRowsCapsChunks(t *testing.T) {
	r := NewRows[int](10_000)
	for i := range 5 << 13 {
		r.Append(i)
	}
	for c, chunk := range r.chunks {
		if want := min(1<<(minChunkShift+c), 1<<13); cap(chunk) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", c, cap(chunk), want)
		}
	}
	if got := collect(&r); len(got) != 5<<13 || got[len(got)-1] != 5<<13-1 {
		t.Fatal("rows lost")
	}
	for _, tc := range []struct{ maxChunk, shift int }{
		{0, minChunkShift}, {1, minChunkShift}, {1 << 13, 13}, {1<<14 - 1, 13}, {1 << 30, maxChunkShift},
	} {
		if got := NewRows[int](tc.maxChunk).capShift; int(got) != tc.shift {
			t.Errorf("NewRows(%d) caps chunks at 1<<%d rows, want 1<<%d", tc.maxChunk, got, tc.shift)
		}
	}
}

// row64 is a 64-byte row, so every chunk (a power-of-two row count) is an
// exact malloc size class and the byte bound below has no rounding slack.
type row64 [8]int64

// TestRowsAppendInChunkZeroAllocs pins the promise behind retaining a
// trace: an append that fits in the last chunk, single or batched,
// allocates nothing.
func TestRowsAppendInChunkZeroAllocs(t *testing.T) {
	var r Rows[row64]
	for r.Len() < rampRows+1 { // start the first fixed-size chunk
		r.Append(row64{})
	}
	batch := make([]row64, 4)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Append(row64{1})
		r.AppendSlice(batch)
	}); avg != 0 {
		t.Fatalf("append inside a chunk: %.2f allocs per run, want 0", avg)
	}
}

// TestRowsAppendNeverCopiesRows pins the other half: appending N rows
// allocates at most N rows plus one chunk (the partly filled last one),
// plus the small chunk directory, so no row is ever copied into a larger
// array the way a growing slice copies it.
func TestRowsAppendNeverCopiesRows(t *testing.T) {
	const n = 3*(1<<maxChunkShift) + rampRows + 12_345
	size := uint64(unsafe.Sizeof(row64{}))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var r Rows[row64]
	for i := range n {
		r.Append(row64{int64(i)})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&r)

	// The directory holds one slice header per chunk and regrows by
	// append's doubling; with size-class rounding it allocates well
	// under eight headers per chunk in total.
	dir := uint64(8 * len(r.chunks) * int(unsafe.Sizeof([]row64{})))
	bound := (n+uint64(r.chunkCap(len(r.chunks)-1)))*size + dir
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("appending %d rows allocated %d bytes, bound %d (rows + one chunk + directory)", n, got, bound)
	}
	if last := r.chunks[len(r.chunks)-1]; last[len(last)-1] != (row64{n - 1}) {
		t.Fatal("last row lost")
	}
}
