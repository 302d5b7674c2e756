package lsh

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func mustDOPH(t *testing.T, cfg DOPHConfig) *DOPH {
	t.Helper()
	d, err := NewDOPH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDOPHConfigValidation(t *testing.T) {
	bad := []DOPHConfig{
		{K: 0, L: 2, Dim: 10},
		{K: 2, L: 0, Dim: 10},
		{K: 2, L: 2, Dim: 0},
		{K: 15, L: 2, Dim: 10, BitsPerBin: 3}, // 45 bits
	}
	for i, cfg := range bad {
		if _, err := NewDOPH(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	d := mustDOPH(t, DOPHConfig{K: 3, L: 4, Dim: 100, Seed: 1})
	if d.Bits() != 9 || d.Tables() != 4 || d.Dim() != 100 {
		t.Errorf("accessors: %d %d %d", d.Bits(), d.Tables(), d.Dim())
	}
}

// setVec returns the 0/1 vector of width dim whose support is elems.
func setVec(dim int, elems ...int32) []float32 {
	v := make([]float32, dim)
	for _, f := range elems {
		v[f] = 1
	}
	return v
}

func TestDOPHDeterministicAndValueInvariant(t *testing.T) {
	d := mustDOPH(t, DOPHConfig{K: 3, L: 10, Dim: 200, Seed: 5})
	a := setVec(200, 3, 50, 120)
	b := make([]float32, 200)
	b[3], b[50], b[120] = 9, -2, 0.1
	ha := make([]uint32, 10)
	hb := make([]uint32, 10)
	d.HashDense(a, ha)
	d.HashDense(b, hb)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatal("DOPH must depend only on the support set, not values")
		}
	}
	limit := uint32(1) << d.Bits()
	for _, h := range ha {
		if h >= limit {
			t.Fatalf("hash %d out of bucket range %d", h, limit)
		}
	}
}

func TestDOPHJaccardLocality(t *testing.T) {
	d := mustDOPH(t, DOPHConfig{K: 1, L: 400, Dim: 1000, Seed: 7})
	rng := rand.New(rand.NewPCG(1, 2))
	base := make([]int32, 0, 50)
	used := map[int32]bool{}
	for len(base) < 50 {
		f := int32(rng.IntN(1000))
		if !used[f] {
			used[f] = true
			base = append(base, f)
		}
	}
	// near: 90% overlap; far: disjoint.
	near := append([]int32(nil), base[:45]...)
	for len(near) < 50 {
		f := int32(rng.IntN(1000))
		if !used[f] {
			used[f] = true
			near = append(near, f)
		}
	}
	far := make([]int32, 0, 50)
	for len(far) < 50 {
		f := int32(rng.IntN(1000))
		if !used[f] {
			used[f] = true
			far = append(far, f)
		}
	}
	hb := make([]uint32, 400)
	hn := make([]uint32, 400)
	hf := make([]uint32, 400)
	d.HashDense(setVec(1000, base...), hb)
	d.HashDense(setVec(1000, near...), hn)
	d.HashDense(setVec(1000, far...), hf)
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
		t.Errorf("Jaccard locality violated: near %d <= far %d of 400", nearColl, farColl)
	}
	if nearColl < 200 { // J(base, near) ≈ 0.82, collisions should dominate
		t.Errorf("near set collided in only %d/400 tables", nearColl)
	}
}

func TestDOPHEmptySet(t *testing.T) {
	d := mustDOPH(t, DOPHConfig{K: 2, L: 4, Dim: 32, Seed: 11})
	out := make([]uint32, 4)
	d.HashDense(make([]float32, 32), out) // must not panic or loop forever
}

func TestDOPHShortOutPanics(t *testing.T) {
	d := mustDOPH(t, DOPHConfig{K: 2, L: 4, Dim: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("short out slice did not panic")
		}
	}()
	d.HashDense(setVec(10, 1), make([]uint32, 3))
}

func TestDOPHWorksInTableSet(t *testing.T) {
	d := mustDOPH(t, DOPHConfig{K: 2, L: 6, Dim: 48, Seed: 13})
	ts := NewTableSet(d, 32, FIFO, 3)
	rng := rand.New(rand.NewPCG(5, 6))
	n := 30
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, 48)
		for j := 0; j < 8; j++ {
			rows[i][rng.IntN(48)] = 1
		}
	}
	ts.RebuildDense(n, 48, func(i int, _ []float32) []float32 { return rows[i] }, 2)
	dedup := NewDedup(n)
	found := 0
	for i := range rows {
		if slices.Contains(collectDense(ts, rows[i], dedup), int32(i)) {
			found++
		}
	}
	if found < n {
		t.Errorf("only %d/%d vectors retrieved themselves", found, n)
	}
}
