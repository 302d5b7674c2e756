package lsh

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
)

func mustDWTA(t *testing.T, cfg DWTAConfig) *DWTA {
	t.Helper()
	d, err := NewDWTA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDWTAConfigValidation(t *testing.T) {
	cases := []DWTAConfig{
		{K: 0, L: 5, Dim: 10},
		{K: 3, L: 0, Dim: 10},
		{K: 3, L: 5, Dim: 0},
		{K: 3, L: 5, Dim: 10, BinSize: 3},   // not a power of two
		{K: 3, L: 5, Dim: 10, BinSize: 1},   // too small
		{K: 3, L: 5, Dim: 10, BinSize: 256}, // above maxBinSize
		{K: 11, L: 5, Dim: 10, BinSize: 8},  // 33 bucket bits
	}
	for i, cfg := range cases {
		if _, err := NewDWTA(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
	d := mustDWTA(t, DWTAConfig{K: 2, L: 3, Dim: 64, Seed: 1})
	if d.Bits() != 6 { // default binSize 8 -> 3 bits per bin
		t.Errorf("Bits = %d, want 6", d.Bits())
	}
	if d.Tables() != 3 || d.dim != 64 {
		t.Errorf("Tables/Dim = %d/%d", d.Tables(), d.dim)
	}
}

// randDense returns n normal values, each zeroed with probability zeroFrac.
func randDense(rng *rand.Rand, n int, zeroFrac float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Float64() >= zeroFrac {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

func TestDWTADeterministic(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 3, L: 10, Dim: 100, Seed: 7})
	v := randDense(rand.New(rand.NewPCG(3, 4)), 100, 0.5)
	h1 := make([]uint32, 10)
	h2 := make([]uint32, 10)
	d.HashDense(v, h1)
	d.HashDense(v, h2)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("table %d: %d != %d (non-deterministic)", i, h1[i], h2[i])
		}
	}
	// A different seed must give a different family.
	d2 := mustDWTA(t, DWTAConfig{K: 3, L: 10, Dim: 100, Seed: 8})
	h3 := make([]uint32, 10)
	d2.HashDense(v, h3)
	same := 0
	for i := range h1 {
		if h1[i] == h3[i] {
			same++
		}
	}
	if same == 10 {
		t.Error("different seeds produced identical hash families")
	}
}

func TestDWTAHashInBucketRange(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 8, Dim: 50, Seed: 3})
	rng := rand.New(rand.NewPCG(1, 2))
	out := make([]uint32, 8)
	limit := uint32(1) << d.Bits()
	for trial := 0; trial < 50; trial++ {
		d.HashDense(randDense(rng, 50, rng.Float64()), out)
		for t2, h := range out {
			if h >= limit {
				t.Fatalf("table %d hash %d exceeds bucket space %d", t2, h, limit)
			}
		}
	}
}

func TestDWTAScaleInvariance(t *testing.T) {
	// WTA hashes depend only on argmax per bin, so any positive scaling of
	// the vector leaves every hash unchanged.
	d := mustDWTA(t, DWTAConfig{K: 4, L: 20, Dim: 200, Seed: 11})
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		val := randDense(rng, 200, 0.5)
		scaled := make([]float32, len(val))
		alpha := float32(0.001 + rng.Float64()*100)
		for i := range val {
			scaled[i] = val[i] * alpha
		}
		h1 := make([]uint32, 20)
		h2 := make([]uint32, 20)
		d.HashDense(val, h1)
		d.HashDense(scaled, h2)
		for i := range h1 {
			if h1[i] != h2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDWTALocality(t *testing.T) {
	// Near-duplicate vectors must collide in far more tables than unrelated
	// vectors — the property SLIDE's sampling relies on.
	dim := 128
	d := mustDWTA(t, DWTAConfig{K: 2, L: 50, Dim: dim, Seed: 31})
	rng := rand.New(rand.NewPCG(9, 10))

	base := make([]float32, dim)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
	}
	near := append([]float32(nil), base...)
	for i := range near {
		near[i] += float32(rng.NormFloat64()) * 0.01
	}
	far := make([]float32, dim)
	for i := range far {
		far[i] = float32(rng.NormFloat64())
	}

	hb := make([]uint32, 50)
	hn := make([]uint32, 50)
	hf := make([]uint32, 50)
	d.HashDense(base, hb)
	d.HashDense(near, hn)
	d.HashDense(far, hf)

	nearColl, farColl := 0, 0
	for i := range hb {
		if hb[i] == hn[i] {
			nearColl++
		}
		if hb[i] == hf[i] {
			farColl++
		}
	}
	if nearColl <= farColl {
		t.Errorf("locality violated: near collisions %d <= far collisions %d", nearColl, farColl)
	}
	if nearColl < 25 { // 1% perturbation should preserve most bin winners
		t.Errorf("near-duplicate collided in only %d/50 tables", nearColl)
	}
}

func TestDWTAShortOutPanics(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 4, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	d.HashDense(make([]float32, 10), make([]uint32, 3))
}

// feature returns the feature behind position p = bin*BinSize + slot, read
// back out of the slot-major map.
func (d *DWTA) feature(p int) int32 {
	return d.idx[(p&(d.binSize-1))*d.k*d.l+p>>d.slotBit]
}

func TestDWTAPermutationCoversAllPositions(t *testing.T) {
	// Every position must be backed by a feature in [0, dim), and the
	// rotations spread the features evenly: 168 positions over 29 features
	// are five whole permutations and part of a sixth.
	d := mustDWTA(t, DWTAConfig{K: 3, L: 7, Dim: 29, Seed: 13})
	positions := 3 * 7 * 8
	if len(d.idx) != positions {
		t.Fatalf("index map has %d positions, want %d", len(d.idx), positions)
	}
	uses := make([]int, 29)
	for p := 0; p < positions; p++ {
		f := d.feature(p)
		if f < 0 || int(f) >= 29 {
			t.Fatalf("position %d maps to invalid feature %d", p, f)
		}
		uses[f]++
	}
	for f, n := range uses {
		if n != positions/29 && n != positions/29+1 {
			t.Errorf("feature %d backs %d positions, want %d or %d", f, n, positions/29, positions/29+1)
		}
	}
}

// referenceHashDense is the dense path as it was before the GatherArgMax
// kernel, kept as the oracle: gather the vector into position order, scan
// each bin's slots with a strict > from slot 0, pack K winners per table.
// (The old path treated a bin whose slots were all -Inf as empty; that case
// now resolves to slot 0 like any other all-equal bin, see
// TestDWTAAllEqualBinsResolveToSlotZero.)
func referenceHashDense(d *DWTA, vals []float32, out []uint32) {
	gathered := make([]float32, d.k*d.l*d.binSize)
	for p := range gathered {
		gathered[p] = vals[d.feature(p)]
	}
	for t := 0; t < d.l; t++ {
		var h uint32
		for k := 0; k < d.k; k++ {
			bin := gathered[(t*d.k+k)*d.binSize:][:d.binSize]
			w := 0
			for s := 1; s < len(bin); s++ {
				if bin[s] > bin[w] {
					w = s
				}
			}
			h = h<<d.slotBit | uint32(w)
		}
		out[t] = h
	}
}

// forEachKernelMode runs f under every kernel tier this host supports and
// restores the startup mode.
func forEachKernelMode(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		t.Run(m.String(), f)
	}
}

func TestDWTAHashDenseMatchesReference(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	inputs := map[string]func(rng *rand.Rand, d *DWTA, v []float32){
		"random": func(rng *rand.Rand, _ *DWTA, v []float32) {
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
		},
		"relu": func(rng *rand.Rand, _ *DWTA, v []float32) { // >= 50% exact zeros
			for i := range v {
				v[i] = max(0, float32(rng.NormFloat64()))
			}
		},
		"all-zero": func(*rand.Rand, *DWTA, []float32) {},
		"all-equal": func(_ *rand.Rand, _ *DWTA, v []float32) {
			for i := range v {
				v[i] = -2.5
			}
		},
		"nan-slot0": func(rng *rand.Rand, d *DWTA, v []float32) {
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			for bin := 0; bin < d.k*d.l; bin += 3 {
				v[d.feature(bin*d.binSize)] = nan
			}
		},
		"nan-mid-bin": func(rng *rand.Rand, d *DWTA, v []float32) {
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			for bin := 0; bin < d.k*d.l; bin += 3 {
				v[d.feature(bin*d.binSize+d.binSize/2)] = nan
			}
		},
		"inf": func(rng *rand.Rand, _ *DWTA, v []float32) {
			for i := range v {
				switch rng.IntN(4) {
				case 0:
					v[i] = inf
				case 1:
					v[i] = -inf
				default:
					v[i] = float32(rng.NormFloat64())
				}
			}
		},
	}
	// K*L covers nbins in {1, 15, 16, 17, 128, 300}: one lane, one short of a
	// zmm register, exactly one, one over, the amazon-s shape, a masked tail.
	shapes := [][2]int{{1, 1}, {3, 5}, {4, 4}, {1, 17}, {4, 32}, {6, 50}}
	forEachKernelMode(t, func(t *testing.T) {
		rng := rand.New(rand.NewPCG(71, 72))
		for _, binSize := range []int{2, 4, 8, 16} {
			for _, kl := range shapes {
				positions := kl[0] * kl[1] * binSize
				// Dim above positions: part of one permutation. Below:
				// several rotations, features repeat across bins.
				for _, dim := range []int{positions + 37, max(2, positions/3)} {
					d := mustDWTA(t, DWTAConfig{K: kl[0], L: kl[1], BinSize: binSize, Dim: dim, Seed: 5})
					got := make([]uint32, kl[1])
					want := make([]uint32, kl[1])
					for name, fill := range inputs {
						v := make([]float32, dim)
						fill(rng, d, v)
						d.HashDense(v, got)
						referenceHashDense(d, v, want)
						for tb := range want {
							if got[tb] != want[tb] {
								t.Fatalf("K=%d L=%d BinSize=%d Dim=%d %s: table %d fingerprint %d, reference %d",
									kl[0], kl[1], binSize, dim, name, tb, got[tb], want[tb])
							}
						}
					}
				}
			}
		}
	})
}

// TestDWTAAllEqualBinsResolveToSlotZero pins the dense path's answer for a
// bin with no strict maximum, including the one input class whose
// fingerprint changed with the GatherArgMax kernel: all -Inf used to be
// treated as an empty bin and given a donor bin's winner.
func TestDWTAAllEqualBinsResolveToSlotZero(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 3, L: 6, Dim: 40, Seed: 9})
	forEachKernelMode(t, func(t *testing.T) {
		for _, fillWith := range []float32{0, 1, float32(math.Inf(-1)), float32(math.Inf(1)), float32(math.NaN())} {
			v := make([]float32, 40)
			for i := range v {
				v[i] = fillWith
			}
			out := make([]uint32, 6)
			d.HashDense(v, out)
			for tb, h := range out {
				if h != 0 {
					t.Errorf("all-%v vector: table %d fingerprint %d, want 0", fillWith, tb, h)
				}
			}
		}
	})
}

// goldenVector is a fixed input built from integer arithmetic only, so its
// bits do not depend on a math library. With relu set, negatives and two
// positions in three are zero (about 85% zeros: most bins tie).
func goldenVector(dim int, relu bool) []float32 {
	v := make([]float32, dim)
	for i := range v {
		x := float32(int32((uint32(i+1)*2654435761)>>8)%2001-1000) / 128
		if relu && (x < 0 || i%3 != 0) {
			x = 0
		}
		v[i] = x
	}
	return v
}

// TestDWTAGoldenFingerprints pins fingerprints computed at the commit before
// the index map went slot-major. The tables section of a v3 checkpoint and a
// replication base store bucket contents keyed by these numbers, so a change
// to the seed → permutation → fingerprint function must fail here rather
// than show up as an accuracy drop after a resume.
func TestDWTAGoldenFingerprints(t *testing.T) {
	golden := []struct {
		cfg         DWTAConfig
		dense, relu []uint32
	}{
		{
			cfg: DWTAConfig{K: 4, L: 32, BinSize: 8, Dim: 128, Seed: 42},
			dense: []uint32{3034, 1466, 1284, 1987, 2904, 3140, 3752, 3266, 1014, 3456, 438, 4074, 2767, 2030, 2589, 1247,
				1584, 3499, 2252, 3102, 3572, 500, 742, 892, 1825, 3951, 3971, 3539, 1862, 922, 2987, 757},
			relu: []uint32{26, 1877, 3079, 3, 1824, 626, 3591, 3784, 514, 3456, 3461, 3338, 2936, 2024, 3871, 23,
				2176, 425, 2299, 48, 3091, 296, 3137, 985, 1937, 3947, 27, 839, 1990, 638, 2372, 197},
		},
		{
			cfg: DWTAConfig{K: 6, L: 50, BinSize: 8, Dim: 200, Seed: 42},
			dense: []uint32{140807, 224741, 68000, 8117, 87779, 182148, 205706, 3023, 224056, 137263, 60177, 177352, 253330,
				142901, 155867, 139908, 29697, 59490, 168168, 99234, 113211, 45525, 165179, 171669, 96982, 22547,
				196875, 130955, 158414, 24152, 203010, 98788, 85179, 156951, 15471, 248395, 58570, 260418, 35928,
				34701, 38343, 236320, 92393, 80536, 166444, 210753, 5538, 184749, 32554, 96809},
			relu: []uint32{131133, 3589, 6849, 437, 103, 19461, 3586, 468, 100152, 66071, 60693, 143416, 35850, 134965,
				91974, 82304, 6987, 26725, 3323, 2946, 27640, 45076, 139531, 25069, 94288, 135171, 225307, 130800,
				158270, 131072, 57600, 114730, 65728, 28160, 229450, 69707, 60920, 11096, 32960, 34330, 41268, 198444,
				189059, 12307, 98559, 5165, 37928, 96938, 65409, 66048},
		},
	}
	forEachKernelMode(t, func(t *testing.T) {
		for _, g := range golden {
			d := mustDWTA(t, g.cfg)
			got := make([]uint32, g.cfg.L)
			for _, c := range []struct {
				relu bool
				want []uint32
			}{{false, g.dense}, {true, g.relu}} {
				d.HashDense(goldenVector(g.cfg.Dim, c.relu), got)
				if !slices.Equal(got, c.want) {
					t.Errorf("K=%d L=%d relu=%v:\n got %v\nwant %v", g.cfg.K, g.cfg.L, c.relu, got, c.want)
				}
			}
		}
	})
}

func TestDWTADenseLengthMismatchPanics(t *testing.T) {
	d := mustDWTA(t, DWTAConfig{K: 2, L: 5, Dim: 10, Seed: 1})
	for _, n := range []int{0, 9, 11} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "hasher Dim is 10") {
					t.Errorf("HashDense with %d values: panic %q does not name the mismatch", n, msg)
				}
			}()
			d.HashDense(make([]float32, n), make([]uint32, 5))
		}()
	}
}

func TestDWTAHashDenseDoesNotAllocate(t *testing.T) {
	if platform.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops the hasher's scratch at random")
	}
	d := mustDWTA(t, DWTAConfig{K: 4, L: 32, Dim: 128, Seed: 3})
	v := goldenVector(128, true)
	out := make([]uint32, 32)
	if a := testing.AllocsPerRun(200, func() { d.HashDense(v, out) }); a != 0 {
		t.Errorf("HashDense allocates %.0f objects per call, want 0", a)
	}
}
