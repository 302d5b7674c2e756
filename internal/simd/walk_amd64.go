//go:build amd64

package simd

import "unsafe"

// Go side of the assembly active-set walks (walk_avx512_amd64.s,
// walk_avx2_amd64.s). A wrapper enforces the slice-length half of its
// kernel's contract, hands the assembly raw base pointers — the slice-header
// array itself for the [][]float32 operands — and turns a short walk into
// the panic the per-row loop would have raised at the offending id.
//
// Every routine returns how many ids it processed: nids after a clean walk,
// otherwise the position of the first id that is out of range or whose
// vector has the wrong length. nrows is the vector count ids are compared
// with; n the dense operand's length.

//go:noescape
func dotManyBiasAVX512Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, h *float32, n int64, out *float32) int64

//go:noescape
func dotManyBiasAVX2Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, h *float32, n int64, out *float32) int64

//go:noescape
func axpyTwoManyAVX512Asm(gz *float32, ids *int32, nids int64, h *float32, n int64, grad, w *[]float32, nrows int64, dh *float32) int64

//go:noescape
func axpyTwoManyAVX2Asm(gz *float32, ids *int32, nids int64, h *float32, n int64, grad, w *[]float32, nrows int64, dh *float32) int64

//go:noescape
func gatherAxpyAVX512Asm(alpha *float32, ids *int32, nids int64, rows *[]float32, nrows int64, y *float32, n int64) int64

//go:noescape
func gatherAxpyAVX2Asm(alpha *float32, ids *int32, nids int64, rows *[]float32, nrows int64, y *float32, n int64) int64

//go:noescape
func scatterAxpyAVX512Asm(alpha *float32, ids *int32, nids int64, x *float32, n int64, rows *[]float32, nrows int64) int64

//go:noescape
func scatterAxpyAVX2Asm(alpha *float32, ids *int32, nids int64, x *float32, n int64, rows *[]float32, nrows int64) int64

// rowOffender raises the per-row loop's panic for id: Go's own index panic
// when it is out of range, the named length panic when its vector is ragged.
func rowOffender(name string, rows [][]float32, id int32, n int) {
	if len(rows[id]) != n {
		panic("simd: " + name + " row length mismatch")
	}
}

func dotManyBiasAVX512(rows [][]float32, bias []float32, ids []int32, h, out []float32) {
	dotManyBiasAsm(dotManyBiasAVX512Asm, 0, rows, bias, ids, h, out)
}

func dotManyBiasAVX2(rows [][]float32, bias []float32, ids []int32, h, out []float32) {
	dotManyBiasAsm(dotManyBiasAVX2Asm, 7, rows, bias, ids, h, out)
}

// dotManyBiasAsm runs one assembly DotManyBias. tail is the tier's Go-side
// remainder mask: the AVX2 assembly leaves the last n&7 columns (and then
// the bias, which is added after them) to the scalar loop below, dotAVX2's;
// the AVX-512 assembly masks its own tail.
func dotManyBiasAsm(asm func(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, h *float32, n int64, out *float32) int64,
	tail int, rows [][]float32, bias []float32, ids []int32, h, out []float32) {
	out = out[:len(ids)]
	if len(ids) == 0 {
		return
	}
	n := len(h)
	nv := n &^ tail
	biasPtr := unsafe.SliceData(bias)
	if nv != n {
		biasPtr = nil
	}
	done := int(asm(unsafe.SliceData(rows), int64(min(len(rows), len(bias))), biasPtr,
		&ids[0], int64(len(ids)), unsafe.SliceData(h), int64(n), &out[0]))
	if nv != n {
		for k, id := range ids[:done] {
			r, s := rows[id], out[k]
			for i := nv; i < n; i++ {
				s += r[i] * h[i]
			}
			out[k] = s + bias[id]
		}
	}
	if done < len(ids) {
		id := ids[done]
		rowOffender("DotManyBias", rows, id, n)
		_ = bias[id]
		panic("simd: DotManyBias stopped at a valid id")
	}
}

func axpyTwoManyAVX512(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	axpyTwoManyAsm(axpyTwoManyAVX512Asm, 0, gz, ids, h, grad, w, dh)
}

func axpyTwoManyAVX2(gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	axpyTwoManyAsm(axpyTwoManyAVX2Asm, 7, gz, ids, h, grad, w, dh)
}

func axpyTwoManyAsm(asm func(gz *float32, ids *int32, nids int64, h *float32, n int64, grad, w *[]float32, nrows int64, dh *float32) int64,
	tail int, gz []float32, ids []int32, h []float32, grad, w [][]float32, dh []float32) {
	checkAxpyTwoMany(gz, ids, h, dh)
	if len(ids) == 0 {
		return
	}
	n := len(h)
	done := int(asm(&gz[0], &ids[0], int64(len(ids)), unsafe.SliceData(h), int64(n),
		unsafe.SliceData(grad), unsafe.SliceData(w), int64(min(len(grad), len(w))), unsafe.SliceData(dh)))
	if nv := n &^ tail; nv != n {
		for k, id := range ids[:done] {
			a, g, r := gz[k], grad[id], w[id]
			for i := nv; i < n; i++ {
				g[i] += a * h[i]
				dh[i] += a * r[i]
			}
		}
	}
	if done < len(ids) {
		id := ids[done]
		rowOffender("AxpyTwoMany", grad, id, n)
		rowOffender("AxpyTwoMany", w, id, n)
		panic("simd: AxpyTwoMany stopped at a valid id")
	}
}

func gatherAxpyAVX512(alpha []float32, ids []int32, rows [][]float32, y []float32) {
	gatherAxpyAsm(gatherAxpyAVX512Asm, 0, alpha, ids, rows, y)
}

func gatherAxpyAVX2(alpha []float32, ids []int32, rows [][]float32, y []float32) {
	gatherAxpyAsm(gatherAxpyAVX2Asm, 7, alpha, ids, rows, y)
}

func gatherAxpyAsm(asm func(alpha *float32, ids *int32, nids int64, rows *[]float32, nrows int64, y *float32, n int64) int64,
	tail int, alpha []float32, ids []int32, rows [][]float32, y []float32) {
	checkAxpyMany("GatherAxpy", alpha, ids)
	if len(ids) == 0 {
		return
	}
	n := len(y)
	done := int(asm(&alpha[0], &ids[0], int64(len(ids)), unsafe.SliceData(rows), int64(len(rows)),
		unsafe.SliceData(y), int64(n)))
	if nv := n &^ tail; nv != n {
		for k, id := range ids[:done] {
			a, r := alpha[k], rows[id]
			for i := nv; i < n; i++ {
				y[i] += a * r[i]
			}
		}
	}
	if done < len(ids) {
		rowOffender("GatherAxpy", rows, ids[done], n)
		panic("simd: GatherAxpy stopped at a valid id")
	}
}

func scatterAxpyAVX512(alpha []float32, ids []int32, x []float32, rows [][]float32) {
	scatterAxpyAsm(scatterAxpyAVX512Asm, 0, alpha, ids, x, rows)
}

func scatterAxpyAVX2(alpha []float32, ids []int32, x []float32, rows [][]float32) {
	scatterAxpyAsm(scatterAxpyAVX2Asm, 7, alpha, ids, x, rows)
}

func scatterAxpyAsm(asm func(alpha *float32, ids *int32, nids int64, x *float32, n int64, rows *[]float32, nrows int64) int64,
	tail int, alpha []float32, ids []int32, x []float32, rows [][]float32) {
	checkAxpyMany("ScatterAxpy", alpha, ids)
	if len(ids) == 0 {
		return
	}
	n := len(x)
	done := int(asm(&alpha[0], &ids[0], int64(len(ids)), unsafe.SliceData(x), int64(n),
		unsafe.SliceData(rows), int64(len(rows))))
	if nv := n &^ tail; nv != n {
		for k, id := range ids[:done] {
			a, r := alpha[k], rows[id]
			for i := nv; i < n; i++ {
				r[i] += a * x[i]
			}
		}
	}
	if done < len(ids) {
		rowOffender("ScatterAxpy", rows, ids[done], n)
		panic("simd: ScatterAxpy stopped at a valid id")
	}
}
