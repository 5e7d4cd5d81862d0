package trace

import "iter"

// Chunk sizing for Rows: the first chunk holds 1<<minChunkShift rows and
// each later one doubles, up to 1<<maxChunkShift rows; every chunk after
// the ramp has that fixed cap. A ten-row table stays one small chunk, and
// a multi-million-row table costs one allocation per 64K rows.
const (
	minChunkShift = 4
	maxChunkShift = 16
	rampChunks    = maxChunkShift - minChunkShift
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
}

// chunkCap is the capacity of the c-th chunk.
func chunkCap(c int) int {
	if c < rampChunks {
		return 1 << (minChunkShift + c)
	}
	return 1 << maxChunkShift
}

// tail returns the last chunk, starting a new one if it is full.
func (r *Rows[T]) tail() *[]T {
	if k := len(r.chunks); k > 0 && len(r.chunks[k-1]) < cap(r.chunks[k-1]) {
		return &r.chunks[k-1]
	}
	r.chunks = append(r.chunks, make([]T, 0, chunkCap(len(r.chunks))))
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
