package simd

import "fmt"

// The GatherArgMax kernel is the DWTA fingerprint kernel (§4.3.3): for each
// of nbins = len(win) bins it gathers the bin's slots from vals through idx
// and records which slot holds the maximum.
//
// idx is slot-major: idx[s*nbins+b] is the position in vals behind slot s of
// bin b, so one vector register holds the same slot of consecutive bins and
// the arg-max runs vertically, one lane per bin — a compare and a masked
// move of value and slot number per slot, no horizontal step. win[b] is the
// lowest s whose value is maximal under a strict > scan from s = 0: ties
// keep the earlier slot, and a NaN never wins a comparison nor loses one it
// already holds (a NaN in slot 0 stays the winner), exactly Go's float >.
// The result is exact, so every tier returns identical bytes.
//
// Contract, checked by every tier: len(idx) == slots*len(win) and
// 1 <= slots <= 256 (winners are bytes). NOT checked by the assembly tiers:
// every idx entry must lie in [0, len(vals)). The gathers are unchecked
// loads, so the caller validates idx once where it is built (lsh.NewDWTA
// does) and passes vals of the length it validated against.

// gatherArgMaxGo is the portable form shared by the Scalar and Vector
// tables: bin by bin with the running best in a register. Blocking it
// slot-outer like the assembly measures the same (the winner compare
// mispredicts either way), so the form without a best-value array stays.
func gatherArgMaxGo(vals []float32, idx []int32, slots int, win []uint8) {
	checkGatherArgMax(len(vals), len(idx), slots, len(win))
	gatherArgMaxFrom(vals, idx, slots, win, 0)
}

// gatherArgMaxFrom resolves bins [from, len(win)); the AVX2 tier uses it for
// the bins past its last full register.
func gatherArgMaxFrom(vals []float32, idx []int32, slots int, win []uint8, from int) {
	nbins := len(win)
	for b := from; b < nbins; b++ {
		best := vals[idx[b]]
		w := 0
		for s, at := 1, nbins+b; s < slots; s, at = s+1, at+nbins {
			if v := vals[idx[at]]; v > best {
				best = v
				w = s
			}
		}
		win[b] = uint8(w)
	}
}

func checkGatherArgMax(nvals, nidx, slots, nbins int) {
	if slots < 1 || slots > 256 {
		panic(fmt.Sprintf("simd: GatherArgMax slots = %d, want 1..256", slots))
	}
	if nidx != slots*nbins {
		panic(fmt.Sprintf("simd: GatherArgMax has %d indices for %d slots x %d bins", nidx, slots, nbins))
	}
	if nvals == 0 && nbins > 0 {
		panic("simd: GatherArgMax over empty vals")
	}
}
