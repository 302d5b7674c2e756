//go:build linux

package simd

import (
	"fmt"
	"math/rand/v2"
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
// too many would fault here.
func TestTiledWalksReadNothingPastARow(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	const nVec = 5
	ids := []int32{4, 0, 4, 2, 1, 3}
	for _, m := range AvailableModes() {
		ks := ForMode(m)
		for _, n := range []int{1, 7, 63, 65, 100, 200, 257, 300} {
			for _, nS := range []int{1, 3, 4} {
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
