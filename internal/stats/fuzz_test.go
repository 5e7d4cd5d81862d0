package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPalette holds the values a fuzzed sample draws by one-byte code, so
// the fuzzer reaches ties, signed zeros, infinities and NaN without
// having to guess eight exact bytes.
var fuzzPalette = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 100, math.Inf(1), math.Inf(-1),
	math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}

// decodeSample reads a sample from data: a byte below 0x80 picks a
// palette value, any other byte is followed by a raw little-endian
// float64 (any bit pattern, NaN payloads included).
func decodeSample(data []byte) []float64 {
	var xs []float64
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		if tag < 0x80 || len(data) < 8 {
			xs = append(xs, fuzzPalette[int(tag)%len(fuzzPalette)])
			continue
		}
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

// splitSample cuts xs into consecutive parts whose lengths the cut bytes
// give (0 makes an empty part); what is left is the last part.
func splitSample(xs []float64, cuts []byte) [][]float64 {
	var parts [][]float64
	for _, c := range cuts {
		k := min(int(c%32), len(xs))
		parts = append(parts, xs[:k])
		xs = xs[k:]
	}
	return append(parts, xs)
}

// FuzzQuantilesOfParts: for any sample cut into any parts,
// QuantilesOfParts gives bit for bit what QuantileInPlace gives on a copy
// of the concatenation, up to the sign of a zero, and leaves the parts
// as they were.
func FuzzQuantilesOfParts(f *testing.F) {
	raw := func(x float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{0xff}, math.Float64bits(x))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 2, 3, 4, 5}, []byte{})                          // one part
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2}, []byte{0, 3, 0, 0})       // all equal, empty parts
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1}, []byte{4, 1, 2}) // heavy ties, both zeros
	f.Add([]byte{8, 6, 7, 8, 2, 8, 9, 10, 11}, []byte{2, 2, 2})     // NaN, ±Inf, extremes
	f.Add(append(append(raw(math.Float64frombits(0x7ff0000000000001)), raw(math.Float64frombits(0xfff8000000000002))...), 8, 2),
		[]byte{1}) // NaN payloads
	qs := []float64{0, 0.25, 0.5, 0.75, 0.999, 1}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		xs := decodeSample(data)
		parts := splitSample(xs, cuts)
		before := make([]uint64, len(xs))
		for i, x := range xs {
			before[i] = math.Float64bits(x)
		}
		got := QuantilesOfParts(parts, qs...)
		for i, x := range xs {
			if math.Float64bits(x) != before[i] {
				t.Fatalf("QuantilesOfParts wrote to its parts at %d", i)
			}
		}
		for i, q := range qs {
			want := QuantileInPlace(append([]float64(nil), xs...), q)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] == 0 && want == 0) {
				t.Fatalf("q=%v over %v in %d parts: %v (%#x), QuantileInPlace gives %v (%#x)",
					q, xs, len(parts), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	})
}
