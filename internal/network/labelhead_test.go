package network

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/slide-cpu/slide/internal/health"
	"github.com/slide-cpu/slide/internal/simd"
)

// labelHeadRef is labelHead as it was before its exponentials went through
// the ExpSum kernel: one math.Exp per logit, summed in list order.
func labelHeadRef(ks *simd.Kernels, guards bool, parts []*stripe, i, nTrue int) (loss float64, bad int64) {
	m := float32(math.Inf(-1))
	for _, s := range parts {
		lg := s.logits[s.offs[i]:s.offs[i+1]]
		if guards {
			bad += health.CountNonFinite32(lg)
		}
		if len(lg) > 0 {
			m = max(m, ks.Max(lg))
		}
	}
	var z float64
	for _, s := range parts {
		lo, hi := s.offs[i], s.offs[i+1]
		g := s.grads[lo:hi]
		for k, l := range s.logits[lo:hi] {
			e := math.Exp(float64(l - m))
			g[k] = float32(e)
			z += e
		}
	}
	invZ := float32(1 / z)
	logZ := math.Log(z) + float64(m)
	var t float32
	if nTrue > 0 {
		t = 1 / float32(nTrue)
	}
	for _, s := range parts {
		lo, hi := s.offs[i], s.offs[i+1]
		g := s.grads[lo:hi]
		if len(g) > 0 {
			ks.Scale(invZ, g)
		}
		for k, l := range s.logits[lo : lo+int32(s.heads[i])] {
			g[k] -= t
			loss -= float64(t) * (float64(l) - logZ)
		}
	}
	return loss, bad
}

// headParts builds a phase-engine-shaped part list: one stripe per entry of
// sizes, each holding three samples, of which sample 1's part has sizes[p]
// logits (0 for an empty part) led by heads[p] label entries. Samples 0 and
// 2 have a few logits each, so a write outside sample 1's range shows.
func headParts(rng *rand.Rand, sizes, heads []int) []*stripe {
	parts := make([]*stripe, len(sizes))
	for p, n := range sizes {
		counts := []int{3, n, 5}
		s := &stripe{offs: []int32{0}, heads: []int{1, heads[p], 0}}
		for _, c := range counts {
			s.offs = append(s.offs, s.offs[len(s.offs)-1]+int32(c))
		}
		total := int(s.offs[3])
		s.logits, s.grads = make([]float32, total), make([]float32, total)
		for k := range s.logits {
			s.logits[k] = float32(rng.NormFloat64() * 3)
			s.grads[k] = float32(rng.NormFloat64())
		}
		parts[p] = s
	}
	return parts
}

func cloneParts(parts []*stripe) []*stripe {
	out := make([]*stripe, len(parts))
	for p, s := range parts {
		c := *s
		c.logits = append([]float32(nil), s.logits...)
		c.grads = append([]float32(nil), s.grads...)
		out[p] = &c
	}
	return out
}

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestLabelHeadMatchesDefinition: on every tier, labelHead returns the loss
// and guard count of the per-logit math.Exp loop it replaced, and
// leaves every gradient with the same bits — over part lists shaped like the
// phase engine's (empty parts included) and a HOGWILD stripe's single part,
// for 0, 1 and 3 labels, with guards on and off, and with a NaN or a +Inf
// logit. Any NaN equals any NaN. A NaN logit must make the loss and every
// gradient of the sample NaN on every tier, whatever the tier's Max makes
// of the NaN: exp(NaN − m) poisons z.
func TestLabelHeadMatchesDefinition(t *testing.T) {
	shapes := []struct {
		name  string
		sizes []int
		heads [3][]int // per nTrue = 0, 1, 3
	}{
		{"hogwild", []int{598}, [3][]int{{0}, {1}, {3}}},
		{"shards", []int{37, 0, 64, 5, 0, 100}, [3][]int{{0, 0, 0, 0, 0, 0}, {0, 0, 1, 0, 0, 0}, {2, 0, 0, 1, 0, 0}}},
		{"tails", []int{1, 7, 9, 0, 15}, [3][]int{{0, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {1, 0, 1, 0, 1}}},
	}
	poisons := []struct {
		name string
		v    float32
	}{{"finite", 0}, {"nan", float32(math.NaN())}, {"+inf", float32(math.Inf(1))}}
	nTrues := []int{0, 1, 3}
	for _, mode := range simd.AvailableModes() {
		ks := simd.ForMode(mode)
		for _, sh := range shapes {
			for ti, nTrue := range nTrues {
				for _, po := range poisons {
					for _, guards := range []bool{false, true} {
						rng := rand.New(rand.NewPCG(uint64(ti), uint64(len(sh.sizes))))
						parts := headParts(rng, sh.sizes, sh.heads[ti])
						if po.name != "finite" {
							// Past the label entries, in the middle of an
							// assembly block of the largest part.
							last := parts[len(parts)-1]
							last.logits[last.offs[1]+int32(sh.sizes[len(sh.sizes)-1]/2)] = po.v
						}
						want := cloneParts(parts)
						n := &Network{guards: guards}
						loss, bad := n.labelHead(ks, parts, 1, nTrue)
						wl, wb := labelHeadRef(ks, guards, want, 1, nTrue)
						name := mode.String() + "/" + sh.name + "/" + po.name
						if !sameBits64(loss, wl) || bad != wb {
							t.Fatalf("%s nTrue=%d guards=%v: (loss %g, bad %d), definition (%g, %d)",
								name, nTrue, guards, loss, bad, wl, wb)
						}
						if guards && po.name != "finite" && bad != 1 {
							t.Fatalf("%s: guards counted %d non-finite logits, want 1", name, bad)
						}
						for p := range parts {
							for k, g := range parts[p].grads {
								if w := want[p].grads[k]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
									t.Fatalf("%s nTrue=%d guards=%v: part %d grad[%d] = %g, definition %g", name, nTrue, guards, p, k, g, w)
								}
							}
						}
						if po.name == "nan" {
							if nTrue > 0 && !math.IsNaN(loss) {
								t.Fatalf("%s nTrue=%d: a NaN logit left loss %g", name, nTrue, loss)
							}
							for p, s := range parts {
								for k, g := range s.grads[s.offs[1]:s.offs[2]] {
									if !math.IsNaN(float64(g)) {
										t.Fatalf("%s: a NaN logit left part %d grad %d = %g", name, p, k, g)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
