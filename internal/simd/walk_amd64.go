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

// The tiled walks (tile_avx512_amd64.s, tile_avx2_amd64.s) take the samples
// of one tile as the slice-header arrays themselves: ns headers of hs / qas
// and of outs / accs, ns at most the routine's tile width. Slot k of every
// output is written for each id processed.

//go:noescape
func dotManyBiasBatchAVX512Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64

//go:noescape
func dotManyBiasBatchAVX2Asm(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64

//go:noescape
func dotManyU8S8VNNIAsm(rows *[]int8, nrows int64, ids *int32, nids int64, qas *[]uint8, ns, n int64, masks *[5]uint64, accs *[]int32) int64

//go:noescape
func dotManyU8S8AVX2Asm(rows *[]int8, nrows int64, ids *int32, nids int64, qas *[]uint8, ns, n int64, tails *[WalkTile][16]uint8, accs *[]int32) int64

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
		dotBiasTail(rows, bias, ids[:done], h, out, nv)
	}
	if done < len(ids) {
		id := ids[done]
		rowOffender("DotManyBias", rows, id, n)
		_ = bias[id]
		panic("simd: DotManyBias stopped at a valid id")
	}
}

// dotBiasTail finishes the AVX2 dot of every listed row against h: the
// columns from nv on, then the bias, added to the vector part already in
// out in dotAVX2's order.
func dotBiasTail(rows [][]float32, bias []float32, ids []int32, h, out []float32, nv int) {
	for k, id := range ids {
		r, s := rows[id], out[k]
		for i := nv; i < len(h); i++ {
			s += r[i] * h[i]
		}
		out[k] = s + bias[id]
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

func dotManyBiasBatchAVX512(rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32) {
	dotManyBiasBatchAsm(dotManyBiasBatchAVX512Asm, 4, 0, rows, bias, ids, hs, outs)
}

func dotManyBiasBatchAVX2(rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32) {
	dotManyBiasBatchAsm(dotManyBiasBatchAVX2Asm, 2, 7, rows, bias, ids, hs, outs)
}

// dotManyBiasBatchAsm walks the batch in tiles of the routine's width. tail
// is the tier's Go-side remainder mask, as in dotManyBiasAsm.
func dotManyBiasBatchAsm(asm func(rows *[]float32, nrows int64, bias *float32, ids *int32, nids int64, hs *[]float32, ns, n int64, outs *[]float32) int64,
	tile, tail int, rows [][]float32, bias []float32, ids []int32, hs, outs [][]float32) {
	checkDotManyBiasBatch(ids, hs, outs)
	if len(ids) == 0 || len(hs) == 0 {
		return
	}
	n := len(hs[0])
	nv := n &^ tail
	biasPtr := unsafe.SliceData(bias)
	if nv != n {
		biasPtr = nil
	}
	for s := 0; s < len(hs); s += tile {
		g := min(tile, len(hs)-s)
		done := int(asm(unsafe.SliceData(rows), int64(min(len(rows), len(bias))), biasPtr,
			&ids[0], int64(len(ids)), &hs[s], int64(g), int64(n), &outs[s]))
		if nv != n {
			for t := s; t < s+g; t++ {
				dotBiasTail(rows, bias, ids[:done], hs[t], outs[t], nv)
			}
		}
		if done < len(ids) {
			id := ids[done]
			rowOffender("DotManyBias", rows, id, n)
			_ = bias[id]
			panic("simd: DotManyBiasBatch stopped at a valid id")
		}
	}
}

// u8s8Offender raises the per-row loop's panic for id: Go's own index panic
// when it is out of range, DotU8S8's when its row is ragged.
func u8s8Offender(rows [][]int8, id int32, n int) {
	if len(rows[id]) != n {
		panic("simd: DotU8S8 length mismatch")
	}
	panic("simd: DotManyU8S8 stopped at a valid id")
}

// lowBits returns a mask of the low min(max(v, 0), 64) bits.
func lowBits(v int) uint64 {
	switch {
	case v <= 0:
		return 0
	case v >= 64:
		return ^uint64(0)
	}
	return 1<<v - 1
}

func dotManyU8S8VNNI(rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32) {
	checkDotManyU8S8(ids, qas, accs)
	if len(ids) == 0 || len(qas) == 0 {
		return
	}
	n := len(qas[0])
	// Byte masks of the 64-byte blocks of a row: one per register-resident
	// block, and the last block's for rows that have more than four.
	var masks [5]uint64
	for j := range 4 {
		masks[j] = lowBits(n - 64*j)
	}
	masks[4] = lowBits((n-1)%64 + 1)
	for s := 0; s < len(qas); s += WalkTile {
		g := min(WalkTile, len(qas)-s)
		done := int(dotManyU8S8VNNIAsm(unsafe.SliceData(rows), int64(len(rows)), &ids[0], int64(len(ids)),
			&qas[s], int64(g), int64(n), &masks, &accs[s]))
		if done < len(ids) {
			u8s8Offender(rows, ids[done], n)
		}
	}
}

// dotManyU8S8AVX2 hands the assembly, for the last n%16 bytes of a row, each
// sample's last n%16 activations behind zeros (see dotManyU8S8AVX2Asm). Rows
// shorter than one 16-byte block take the portable walk.
func dotManyU8S8AVX2(rows [][]int8, ids []int32, qas [][]uint8, accs [][]int32) {
	checkDotManyU8S8(ids, qas, accs)
	if len(ids) == 0 || len(qas) == 0 {
		return
	}
	n := len(qas[0])
	if n < 16 {
		dotManyU8S8Rows(dotU8S8AVX2, rows, ids, qas, accs)
		return
	}
	for s := 0; s < len(qas); s += WalkTile {
		g := min(WalkTile, len(qas)-s)
		var tails [WalkTile][16]uint8
		for t, qa := range qas[s : s+g] {
			copy(tails[t][16-n%16:], qa[n&^15:])
		}
		done := int(dotManyU8S8AVX2Asm(unsafe.SliceData(rows), int64(len(rows)), &ids[0], int64(len(ids)),
			&qas[s], int64(g), int64(n), &tails, &accs[s]))
		if done < len(ids) {
			u8s8Offender(rows, ids[done], n)
		}
	}
}
