package simd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// maxQuantLen is quant.MaxDotLen, the longest row the quantized tier packs.
const maxQuantLen = 1 << 16

// f32Bytes encodes float32 values as the little-endian bit patterns the fuzz
// targets decode.
func f32Bytes(vs ...float32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func f32FromBits(bits ...uint32) []float32 {
	vs := make([]float32, len(bits))
	for i, b := range bits {
		vs[i] = math.Float32frombits(b)
	}
	return vs
}

// compareQuantizeRow8 runs every tier's QuantizeRow8 on w at the given element
// offset into its backing array and compares scale, sum, flag and every byte
// of dst — including three bytes past len(w), which no tier may write — with
// the definition's.
func compareQuantizeRow8(t *testing.T, w []float32, off int) {
	t.Helper()
	const sentinel = 0x5a
	w = append(make([]float32, off, off+len(w)), w...)[off:]
	want := make([]int8, len(w)+3)
	for i := range want {
		want[i] = sentinel
	}
	ws, wsum, wfin := quantizeRow8(w, want)
	finite := true
	for _, v := range w {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			finite = false
		}
	}
	if wfin != finite {
		t.Fatalf("n=%d: the definition reports finite=%v", len(w), wfin)
	}
	var sum int32
	for _, q := range want[:len(w)] {
		sum += int32(q)
	}
	if finite && sum != wsum {
		t.Fatalf("n=%d: the definition's row sum %d is not its codes' %d", len(w), wsum, sum)
	}
	for _, m := range AvailableModes() {
		dst := make([]int8, len(w)+3)
		for i := range dst {
			dst[i] = sentinel
		}
		s, sum, fin := ForMode(m).QuantizeRow8(w, dst)
		if math.Float32bits(s) != math.Float32bits(ws) || sum != wsum || fin != wfin {
			t.Fatalf("%v n=%d off=%d: (%g, %d, %v), definition (%g, %d, %v)", m, len(w), off, s, sum, fin, ws, wsum, wfin)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("%v n=%d off=%d: dst[%d] = %d, definition %d", m, len(w), off, i, dst[i], want[i])
			}
		}
	}
}

// FuzzQuantizeRow8: on every tier, packing a row of arbitrary float32 bit
// patterns, at any length up to the packer's limit and any start within a
// register, gives the definition's scale, row sum, finiteness and bytes.
func FuzzQuantizeRow8(f *testing.F) {
	rng := rand.New(rand.NewPCG(41, 42))
	// A subnormal row whose scale underflows to 0: every quotient is ±Inf,
	// or NaN for the zeros, and packs to -127.
	f.Add(f32Bytes(f32FromBits(3, 0x80000005, 0, 0x80000000, 1, 0x80000002, 4, 0, 2, 3, 5, 0x80000001, 0, 1, 2, 3, 4, 5, 0x80000003)...), uint8(0))
	// Exact .5 quotients at scale 1 and at scale 2, both signs.
	f.Add(f32Bytes(127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 63.5, -63.5, 0.49999997, -0.49999997, 3.5, 4.5, -5.5, 7.5, 9.5, -10.5), uint8(1))
	f.Add(f32Bytes(254, 1, -1, 3, -3, 5, -5, 251, -251, 127, -127, 2, 0.99999994, -1.0000001, 7, 9, 11, -13, 15, 17, 19, 21, 23), uint8(5))
	// ±0: an all-zero row of both signs, and -0 beside non-zeros.
	f.Add(f32Bytes(0, float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1)), 0, 0, 0, 0, 0), uint8(2))
	f.Add(f32Bytes(float32(math.Copysign(0, -1)), 1, -2, 0, 3, float32(math.Copysign(0, -1)), -4, 5, 6, 7, 8, -9, 10, 11, 12, 13, 14), uint8(3))
	// One Inf or NaN: in a masked tail, in a vector body, in a Go tail.
	inf := float32(math.Inf(1))
	row := make([]float32, 45)
	for i := range row {
		row[i] = float32(rng.NormFloat64())
	}
	row[37] = inf
	f.Add(f32Bytes(row[:40]...), uint8(0))
	row[37], row[3] = 1, -inf
	f.Add(f32Bytes(row[:40]...), uint8(7))
	row[3], row[44] = 2, float32(math.NaN())
	f.Add(f32Bytes(row...), uint8(0))
	row[44], row[0] = 1, math.Float32frombits(0xffc00001)
	f.Add(f32Bytes(row...), uint8(9))
	// Ordinary rows of every kind of length, and the longest.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 33, 128, 200, 333, maxQuantLen} {
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
		}
		f.Add(f32Bytes(row...), uint8(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 4
		if n > maxQuantLen {
			t.Skip()
		}
		w := make([]float32, n)
		for i := range w {
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		compareQuantizeRow8(t, w, int(off%16))
	})
}

// sameF32 is bit equality, except that any NaN equals any NaN: when both
// operands of one step are NaNs, which payload survives depends on operand
// order, and no quantized row or scale is ever NaN.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// FuzzDequantRows8: on every tier, dequantizing arbitrary accumulators,
// scales, row sums and biases — float32 bit patterns of every kind, int32
// values whose acc - zp*rowSum wraps — gives the definition's logits, and
// writes nothing past them.
func FuzzDequantRows8(f *testing.F) {
	rec := func(acc int32, scale float32, rowSum int32, bias float32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(acc))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(scale))
		b = binary.LittleEndian.AppendUint32(b, uint32(rowSum))
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(bias))
	}
	rng := rand.New(rand.NewPCG(43, 44))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 33, 200} {
		var data []byte
		for range n {
			data = append(data, rec(rng.Int32N(1<<20)-1<<19, float32(rng.Float64())/64, rng.Int32N(8000)-4000, float32(rng.NormFloat64()))...)
		}
		f.Add(data, math.Float32bits(0.0123), int32(rng.IntN(128)))
	}
	// acc - zp*rowSum wrapping int32: zp*rowSum overflows, and so does the
	// difference.
	var wrap []byte
	for k := range int32(19) {
		wrap = append(wrap, rec(math.MaxInt32-k, 0.5, 1<<24+k, 1)...)
		wrap = append(wrap, rec(math.MinInt32+k, 0.25, -(1<<24)-k, -1)...)
	}
	f.Add(wrap, math.Float32bits(1e-3), int32(127))
	f.Add(wrap, math.Float32bits(3), int32(-1))
	// Zero scales and -0 biases, subnormal and huge products, Inf and NaN.
	var special []byte
	for _, s := range []float32{0, float32(math.Copysign(0, -1)), 1e-45, 1e-40, 3e38, float32(math.Inf(1)), float32(math.NaN())} {
		special = append(special, rec(5, s, 1, float32(math.Copysign(0, -1)))...)
		special = append(special, rec(-7, s, 0, float32(math.Inf(-1)))...)
	}
	f.Add(special, math.Float32bits(1e30), int32(3))
	f.Add(special, math.Float32bits(0), int32(0))
	f.Fuzz(func(t *testing.T, data []byte, saBits uint32, zp int32) {
		n := len(data) / 16
		if n > maxQuantLen {
			t.Skip()
		}
		acc, scales := make([]int32, n), make([]float32, n)
		rowSums, bias := make([]int32, n), make([]float32, n)
		for k := range n {
			r := data[16*k:]
			acc[k] = int32(binary.LittleEndian.Uint32(r))
			scales[k] = math.Float32frombits(binary.LittleEndian.Uint32(r[4:]))
			rowSums[k] = int32(binary.LittleEndian.Uint32(r[8:]))
			bias[k] = math.Float32frombits(binary.LittleEndian.Uint32(r[12:]))
		}
		sa := math.Float32frombits(saBits)
		want := make([]float32, n+3)
		dequantRows8(acc, scales, rowSums, bias, sa, zp, want[:n], nil)
		for _, m := range AvailableModes() {
			for _, withMaxes := range []bool{false, true} {
				out := make([]float32, n+3)
				for i := range out {
					out[i] = -1
				}
				var maxes []float32
				if withMaxes {
					maxes = make([]float32, groups(n))
				}
				ForMode(m).DequantRows8(acc, scales, rowSums, bias, sa, zp, out[:n], maxes)
				for k := range n {
					if !sameF32(out[k], want[k]) {
						t.Fatalf("%v n=%d maxes=%v: out[%d] = %g (%#x), definition %g (%#x)", m, n, withMaxes, k, out[k], math.Float32bits(out[k]), want[k], math.Float32bits(want[k]))
					}
				}
				for k := n; k < len(out); k++ {
					if out[k] != -1 {
						t.Fatalf("%v n=%d: wrote out[%d]", m, n, k)
					}
				}
				if withMaxes {
					checkMaxes(t, m.String(), out[:n], maxes)
				}
			}
		}
	})
}

// groups is how many DequantRows8 maxima n logits have.
func groups(n int) int { return (n + MaxGroup - 1) / MaxGroup }

// checkMaxes wants maxes[j] to be the Go max over out's group j: equal to
// it, or a NaN where the group holds one.
func checkMaxes(t *testing.T, tag string, out, maxes []float32) {
	t.Helper()
	for j := range groups(len(out)) {
		g := out[j*MaxGroup : min((j+1)*MaxGroup, len(out))]
		want := g[0]
		for _, v := range g[1:] {
			want = max(want, v)
		}
		if got := maxes[j]; got != want && !(got != got && want != want) {
			t.Fatalf("%s n=%d: maxes[%d] = %g, the max over its group %g", tag, len(out), j, got, want)
		}
	}
}

// TestDequantRows8Maxima: on every tier, at every length from 0 to 300 and
// at each start within a register, the maxima equal a Go max over out, out
// holds the bits it holds without maxima, and nothing past the last group's
// maximum is written — on ordinary logits, and with NaNs, infinities and
// signed zeros placed at random rows.
func TestDequantRows8Maxima(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 50))
	const sentinel = -7
	for _, special := range []bool{false, true} {
		for n := 0; n <= 300; n++ {
			off := n % 16
			acc, scales := make([]int32, off+n)[off:], randSlice(rng, off+n)[off:]
			rowSums, bias := make([]int32, off+n)[off:], randSlice(rng, off+n)[off:]
			for k := range n {
				acc[k], rowSums[k] = rng.Int32N(1<<16)-1<<15, rng.Int32N(1<<10)
			}
			if special {
				for range 1 + n/40 {
					k := rng.IntN(max(n, 1))
					if n == 0 {
						break
					}
					bias[k] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}[rng.IntN(4)]
					scales[k] = 0
				}
			}
			want := make([]float32, n)
			dequantRows8(acc, scales, rowSums, bias, 0.02, 11, want, nil)
			for _, m := range AvailableModes() {
				tag := fmt.Sprintf("%v special=%v off=%d", m, special, off)
				out := make([]float32, off+n)[off:]
				maxes := make([]float32, groups(n)+2)
				for j := range maxes {
					maxes[j] = sentinel
				}
				ForMode(m).DequantRows8(acc, scales, rowSums, bias, 0.02, 11, out, maxes[:groups(n)])
				for k := range out {
					if math.Float32bits(out[k]) != math.Float32bits(want[k]) {
						t.Fatalf("%s n=%d: out[%d] = %g, %g without maxima", tag, n, k, out[k], want[k])
					}
				}
				checkMaxes(t, tag, out, maxes)
				for j := groups(n); j < len(maxes); j++ {
					if maxes[j] != sentinel {
						t.Fatalf("%s n=%d: wrote maxes[%d]", tag, n, j)
					}
				}
			}
		}
	}
}

// TestQuantKernelsContracts: on every tier an operand shorter than the call
// needs panics instead of being read or written past, an empty call touches
// nothing, and neither kernel allocates.
func TestQuantKernelsContracts(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	const n = 37
	w := randSlice(rng, n)
	acc, scales, rowSums, bias := make([]int32, n), randSlice(rng, n), make([]int32, n), randSlice(rng, n)
	dst, out, maxes := make([]int8, n), make([]float32, n), make([]float32, groups(n))
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for name, f := range map[string]func(){
			"QuantizeRow8 short dst":    func() { ks.QuantizeRow8(w, dst[:n-1]) },
			"DequantRows8 short acc":    func() { ks.DequantRows8(acc[:n-1], scales, rowSums, bias, 1, 3, out, nil) },
			"DequantRows8 short scales": func() { ks.DequantRows8(acc, scales[:n-1], rowSums, bias, 1, 3, out, nil) },
			"DequantRows8 short sums":   func() { ks.DequantRows8(acc, scales, rowSums[:n-1], bias, 1, 3, out, nil) },
			"DequantRows8 short bias":   func() { ks.DequantRows8(acc, scales, rowSums, bias[:n-1], 1, 3, out, nil) },
			"DequantRows8 short maxes":  func() { ks.DequantRows8(acc, scales, rowSums, bias, 1, 3, out, maxes[:0]) },
		} {
			expectPanic(t, m.String()+" "+name, f)
		}
		if s, sum, fin := ks.QuantizeRow8(nil, nil); s != 0 || sum != 0 || !fin {
			t.Errorf("%v: QuantizeRow8 of an empty row = (%g, %d, %v)", m, s, sum, fin)
		}
		ks.DequantRows8(nil, nil, nil, nil, 1, 3, nil, nil)
		ks.DequantRows8(nil, nil, nil, nil, 1, 3, nil, maxes[:0])
		for name, f := range map[string]func(){
			"QuantizeRow8": func() { ks.QuantizeRow8(w, dst) },
			"DequantRows8": func() { ks.DequantRows8(acc, scales, rowSums, bias, 1, 3, out, maxes) },
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%v %s: %v allocations per call", m, name, a)
			}
		}
	}
}
