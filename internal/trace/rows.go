package trace

import (
	"iter"
	"math/bits"
)

// Chunk sizing for Rows: the first chunk holds 1<<minChunkShift rows and
// each later one doubles, up to the table's cap; every chunk after the
// ramp holds exactly the cap. The zero value's cap is 1<<maxChunkShift
// rows, so a ten-row table stays one small chunk and a multi-million-row
// table, such as a retained trace's, costs one allocation per 64K rows.
// A table's unfilled tail is live heap, up to one chunk; a run that keeps
// many tables that each hold far fewer rows, such as a reducer's slack
// samples, caps them lower with NewRows.
const (
	minChunkShift = 4
	maxChunkShift = 16
)

// Rows is an append-only table stored in chunks that never move: an
// append fills the last chunk's spare capacity or starts a new chunk, so
// no row is copied after it is stored and an append inside a chunk does
// not allocate. The zero value is an empty table ready to use.
//
// Rows is not safe for concurrent mutation. Readers (Len, All and
// Chunks) may run concurrently with each other but not with an append.
type Rows[T any] struct {
	chunks [][]T
	n      int
	// capShift caps chunks at 1<<capShift rows; zero means maxChunkShift.
	capShift uint8
}

// NewRows returns an empty table whose chunks hold at most maxChunk rows,
// rounded down to a power of two between 1<<minChunkShift and the zero
// value's 1<<maxChunkShift.
func NewRows[T any](maxChunk int) Rows[T] {
	shift := min(max(bits.Len(uint(maxChunk))-1, minChunkShift), maxChunkShift)
	return Rows[T]{capShift: uint8(shift)}
}

// chunkCap is the capacity of the table's c-th chunk.
func (r *Rows[T]) chunkCap(c int) int {
	shift := int(r.capShift)
	if shift == 0 {
		shift = maxChunkShift
	}
	return 1 << min(minChunkShift+c, shift)
}

// tail returns the last chunk, starting a new one if it is full.
func (r *Rows[T]) tail() *[]T {
	if k := len(r.chunks); k > 0 && len(r.chunks[k-1]) < cap(r.chunks[k-1]) {
		return &r.chunks[k-1]
	}
	r.chunks = append(r.chunks, make([]T, 0, r.chunkCap(len(r.chunks))))
	return &r.chunks[len(r.chunks)-1]
}

// Append stores one row.
func (r *Rows[T]) Append(v T) {
	last := r.tail()
	*last = append(*last, v)
	r.n++
}

// AppendSlice stores vs in order, copying them into the table; the
// caller keeps ownership of vs.
func (r *Rows[T]) AppendSlice(vs []T) {
	for len(vs) > 0 {
		last := r.tail()
		k := min(len(vs), cap(*last)-len(*last))
		*last = append(*last, vs[:k]...)
		r.n += k
		vs = vs[k:]
	}
}

// Len returns the number of rows stored.
func (r *Rows[T]) Len() int { return r.n }

// All yields every row in append order.
func (r *Rows[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, chunk := range r.chunks {
			for _, v := range chunk {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Chunks yields the table as consecutive non-empty blocks in append
// order, for batch delivery such as Sink.UsageBatch. The blocks alias
// the table's storage: the caller must not modify them.
func (r *Rows[T]) Chunks() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		for _, chunk := range r.chunks {
			if len(chunk) > 0 && !yield(chunk) {
				return
			}
		}
	}
}
