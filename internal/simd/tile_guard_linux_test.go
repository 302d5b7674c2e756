//go:build linux

package simd

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns size writable bytes whose last byte is the last byte
// before an inaccessible page: one byte read past them faults.
func guarded(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (size+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[(pages-1)*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	end := (pages - 1) * page
	return mem[end-size : end : end]
}

// TestTiledWalksReadNothingPastARow places the matrix, and then each
// activation, so that its last element is the last before an unmapped page,
// at widths that leave a partial last block on every tier (n%64, n%16 and
// n%8 all non-zero among them): a masked or split tail that read one element
// too many would fault here. The list holds a tile of 8 ids and three more,
// and the batches include the VNNI tier's panel walks, so its 4-byte row
// loads — the K%4 tail's among them — meet the guard page too.
func TestTiledWalksReadNothingPastARow(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	const nVec = 5
	ids := []int32{4, 0, 4, 2, 1, 3, 4, 1, 0, 4, 2}
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for _, n := range []int{1, 7, 63, 65, 100, 200, 257, 300} {
			for _, nS := range []int{1, 3, 4, panelMin, 32, 33} {
				name := fmt.Sprintf("%s n=%d samples=%d", m, n, nS)

				raw := guarded(t, nVec*n)
				block := unsafe.Slice((*int8)(unsafe.Pointer(&raw[0])), len(raw))
				q := make([][]int8, nVec)
				for i := range q {
					q[i] = block[i*n : (i+1)*n : (i+1)*n]
					for j := range q[i] {
						q[i][j] = int8(rng.IntN(255) - 127)
					}
				}
				qas, accs := make([][]uint8, nS), make([][]int32, nS)
				for s := range qas {
					qas[s], accs[s] = guarded(t, n), make([]int32, len(ids))
					copy(qas[s], quantActs(rng, n, 0))
				}
				ks.DotManyU8S8(q, ids, qas, accs)
				for s := range qas {
					for k, id := range ids {
						if want := dotU8S8Scalar(qas[s], q[id]); accs[s][k] != want {
							t.Fatalf("%s DotManyU8S8 sample %d id %d: %d, want %d", name, s, id, accs[s][k], want)
						}
					}
				}

				raw = guarded(t, 4*nVec*n)
				fblock := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), nVec*n)
				w, bias := make([][]float32, nVec), randSlice(rng, nVec)
				for i := range w {
					w[i] = fblock[i*n : (i+1)*n : (i+1)*n]
					copy(w[i], randSlice(rng, n))
				}
				hs, outs := make([][]float32, nS), make([][]float32, nS)
				for s := range hs {
					raw := guarded(t, 4*n)
					hs[s], outs[s] = unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n), make([]float32, len(ids))
					copy(hs[s], randSlice(rng, n))
				}
				ks.DotManyBiasBatch(w, bias, ids, hs, outs)
				for s := range hs {
					for k, id := range ids {
						if want := ks.Dot(w[id], hs[s]) + bias[id]; outs[s][k] != want {
							t.Fatalf("%s DotManyBiasBatch sample %d id %d: %v, want %v", name, s, id, outs[s][k], want)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeRow8DequantRows8StayInBounds places every operand of the
// quantized tier's element-wise kernels, read or written, so that its last
// element is the last before an unmapped page, at lengths with a partial last
// register on every tier.
func TestQuantizeRow8DequantRows8StayInBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	f32s := func(n int) []float32 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&guarded(t, 4*n)[0])), n)
	}
	i32s := func(n int) []int32 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, 4*n)[0])), n)
	}
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for _, n := range []int{1, 7, 9, 15, 17, 33, 200, 257} {
			w := f32s(n)
			copy(w, randSlice(rng, n))
			dst := unsafe.Slice((*int8)(unsafe.Pointer(&guarded(t, n)[0])), n)
			want := make([]int8, n)
			ws, wsum, _ := quantizeRow8(w, want)
			if s, sum, _ := ks.QuantizeRow8(w, dst); s != ws || sum != wsum || !slices.Equal(dst, want) {
				t.Fatalf("%v n=%d: QuantizeRow8 differs from its definition", m, n)
			}

			acc, sums, scales, bias, out := i32s(n), i32s(n), f32s(n), f32s(n), f32s(n)
			for k := range n {
				acc[k], sums[k] = rng.Int32N(1<<16), rng.Int32N(1<<10)
			}
			copy(scales, randSlice(rng, n))
			copy(bias, randSlice(rng, n))
			ref, refMaxes, maxes := make([]float32, n), make([]float32, groups(n)), f32s(groups(n))
			dequantRows8(acc, scales, sums, bias, 0.01, 9, ref, refMaxes)
			ks.DequantRows8(acc, scales, sums, bias, 0.01, 9, out, maxes)
			for k := range out {
				if out[k] != ref[k] {
					t.Fatalf("%v n=%d: DequantRows8 out[%d] = %v, definition %v", m, n, k, out[k], ref[k])
				}
			}
			if !slices.Equal(maxes, refMaxes) {
				t.Fatalf("%v n=%d: DequantRows8 maxes %v, definition %v", m, n, maxes, refMaxes)
			}
		}
	}
}
