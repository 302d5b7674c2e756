package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
	"github.com/slide-cpu/slide/internal/sparse"
)

// trainStateSHA hashes everything training changes — both layers with their
// moments, the hash tables and the top-up RNG streams — and leaves out the
// config section, whose bytes are allowed to grow fields.
func trainStateSHA(t *testing.T, n *Network) string {
	t.Helper()
	h := sha256.New()
	parts := []func(io.Writer) error{n.hidden.Serialize, n.output.Serialize}
	if n.sh != nil {
		parts = append(parts, func(w io.Writer) error { return serializeShardTables(w, n.sh.tables) })
	} else {
		parts = append(parts, n.tables.Serialize)
	}
	parts = append(parts, n.writeRNG)
	for _, write := range parts {
		if err := write(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingBitsPinned trains the two benchmark regimes in miniature — an
// amazon-like model (hidden 128, ReLU, DWTA, a few non-zeros per input) and
// a text8-like one (hidden 200, linear, SimHash, one-hot inputs) — through
// both engines and compares the trained state with hashes recorded before
// the active-set walks became single kernel calls. Every kernel tier has its
// own literal: tiers differ from each other in dot-product reduction order,
// but no tier may differ from its own past.
func TestTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	type shape struct {
		cfg      Config
		protoNNZ int
	}
	shapes := map[string]shape{
		"amazon": {Config{InputDim: 1500, HiddenDim: 128, OutputDim: 2000,
			Hash: DWTA, K: 4, L: 10, MinActive: 48, LR: 0.01, RebuildEvery: 10, Seed: 101}, 12},
		"text8": {Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102}, 1},
	}
	engines := map[string]func(*Config){
		"hogwild1": func(c *Config) { c.Workers = 1 },
		"shards4":  func(c *Config) { c.Shards, c.Workers = 4, 2 },
	}
	want := map[string]string{
		"avx512/amazon/hogwild1": "3657991be757f0c180a85207cf3cd911f6040c09f0b68f91d0e7c3aaa3eb614a",
		"avx512/amazon/shards4":  "9e619e9967c8bd46b93edcee4bc90ffd5608fe71b5bf40c55f7cf910d36a9eef",
		"avx512/text8/hogwild1":  "74464885238fbce232e0fcd577d5e62f8e7b4b06ae659414bd7243862f47f850",
		"avx512/text8/shards4":   "eb9875086c0458c1d935b21f68d7593a89a7f9bedea1f41d8d615a7072039b63",
		"avx2/amazon/hogwild1":   "464f272a514893168a4ad1591a8282a86c28df9807c49f2b0bdbaaa8db2430b3",
		"avx2/amazon/shards4":    "9196031369cc0ec50fa85b407fd3901c795f6f496c85ddf578e8697209c1e22b",
		"avx2/text8/hogwild1":    "2e1fe6585e56ce33b5c8d2d9342be705a27d5391e40ad37e4bc28cd8751e9e17",
		"avx2/text8/shards4":     "0f83550e4e71118c27763454710c6e1753d26d13bf380908e0aa9a4771580e4d",
		"vector/amazon/hogwild1": "fbe6475ef56c3452cc56dc24070b99ad4a0ba2d4f17100d55a2d7460ceaff799",
		"vector/amazon/shards4":  "d5f2d192f70856dd937aee9108fd75f45f746ccb4b7ccaed19c02df43441d119",
		"vector/text8/hogwild1":  "4c354dd2d5116d77a32943233408ac1752a60a13c74a68b962e34b57a480f35e",
		"vector/text8/shards4":   "2ea1064027eeb1a05f69faf7e16904e9417f9c66eeb642d73f11d6d74f8f2b04",
		"scalar/amazon/hogwild1": "6b91a72e8a6b64ee1fb02fd3cb815c9e3cf2087aee209c06303ca08d43b0133f",
		"scalar/amazon/shards4":  "af0474ba9ff312279914b007f9e5fef17520f489b1202087ffe0d8c4038efdec",
		"scalar/text8/hogwild1":  "679917c92a04b37282836fba43ca70e21f314fe831723a20f7f0642fa3099666",
		"scalar/text8/shards4":   "7276a8bd48a1c496ffc17fcbc4184ee9d965ed7a491ceacc242a490725bcd7a0",
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		for sn, sh := range shapes {
			for en, engine := range engines {
				name := m.String() + "/" + sn + "/" + en
				cfg := sh.cfg
				engine(&cfg)
				n, err := New(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := newPlanted(cfg.InputDim, cfg.OutputDim, sh.protoNNZ, 7)
				trainN(t, n, p, 36, 32)
				if got := trainStateSHA(t, n); got != want[name] {
					t.Errorf("%s: trained state hashes to %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// TestServingScoresPinned is the serving counterpart of
// TestTrainingBitsPinned: the same two regimes after a few dozen W=1 steps,
// un-sharded and on four shards, served from the f32 snapshot and from its
// Quantize(8) rendering. Each literal hashes PredictSampled ids, the full
// Scores vectors and mixed-k PredictBatchK ids of 40 fixed queries, and was
// recorded on the commit before every exact entry point became one blocked
// walk of the active-set primitive — an oracle that does not share the
// walk's code, which "batched equals single" no longer is.
func TestServingScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	type shape struct {
		cfg      Config
		protoNNZ int
	}
	shapes := map[string]shape{
		"amazon": {Config{InputDim: 1500, HiddenDim: 128, OutputDim: 2000, Workers: 1,
			Hash: DWTA, K: 4, L: 10, MinActive: 48, LR: 0.01, RebuildEvery: 10, Seed: 201}, 12},
		"text8": {Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, Workers: 1, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 202}, 1},
	}
	want := map[string]string{
		"avx512/amazon/shards0/f32":  "8e86807b0d30dae01abefbe71233a45df5f6fe96e30400c1af2bd22110188ab6",
		"avx512/amazon/shards0/int8": "c8ba056152127982247fcd5d3c1b6140b300a87cf2dcdcf4c54797e979d40b47",
		"avx512/amazon/shards4/f32":  "47babf9c5656f7c32a07313902518155acf09b549e52c0465f3e4a295f7352e9",
		"avx512/amazon/shards4/int8": "636cef8d87c2aa1d59f8e4c3833390253162ddf05763d9bddf1ef14c7656794b",
		"avx512/text8/shards0/f32":   "a7f5cfc66c6334e4bce6ad0d82040041f758c625aba39a642bcdf8e37cbf4875",
		"avx512/text8/shards0/int8":  "5205f4e6c921a202218e6f3cca955d67742c69209a37173fed30156e2da52b6b",
		"avx512/text8/shards4/f32":   "7bf5e9a7de1efe551815f0695ae12f774b729858e1040e248889be8dbf8445f1",
		"avx512/text8/shards4/int8":  "cd06fd50cdadcb11ca64b99a278d82c7274914f151270a50777230fdf8be5815",
		"avx2/amazon/shards0/f32":    "1ba77c0f377a1d3837e514cd9a15e4294164875dd042341c94420a5f8cbde982",
		"avx2/amazon/shards0/int8":   "9b11364e8b2a98c4433e6643489fdc4085ddc84dd15d0e05e21abef9b8189135",
		"avx2/amazon/shards4/f32":    "d27e8dc1dbbe35e5b4e07b371b892b9270528d185bef968be1c73640dcc107e3",
		"avx2/amazon/shards4/int8":   "49fb0da8e268c50f5010c7ca845cf9d21812229447bf66d0183c392bda013717",
		"avx2/text8/shards0/f32":     "f61cdcaeff0eddd962b70abf182752a8a9da78ee6ed575007f40fd52eaca33a9",
		"avx2/text8/shards0/int8":    "09feb4202e749a00300604e39c664c7bf219c65aed1b78ac75857213f3ec7b0e",
		"avx2/text8/shards4/f32":     "8e0a4a5166bc66d4e0ca6e872e7836abd157ea5984fc97983b6c9cd8d289bacd",
		"avx2/text8/shards4/int8":    "770a0954f5f77c345978cc4d4dd1bed89b5126aad8e6e93d1e6da3befc18c00b",
		"vector/amazon/shards0/f32":  "dd96350b5593d3a59629760a0f0835ba8e974d869efebc278dea1db9ed59dd7e",
		"vector/amazon/shards0/int8": "f685443700296815582e4d2b813e33f744bab8da8192e4f6ac72971731f18cbb",
		"vector/amazon/shards4/f32":  "a34955a410e8b6555562b60d19fdb36f2858982b2d5888f500474071f7a40994",
		"vector/amazon/shards4/int8": "3a02c0d76e8cfe2b139f846075766d6e5aded3be051510c455fc144f67c08eb3",
		"vector/text8/shards0/f32":   "ddc431ddb668975d299caaaa61bdfd9b797ed5de0bf90cdeed856ec6a0914e67",
		"vector/text8/shards0/int8":  "d00bcdee456a5fd2de83677e8065f0681a1300d79f20310a98292dcbd9876c39",
		"vector/text8/shards4/f32":   "eb9fd7043ae90a5d3e629e71816f004f4412e2eaaa1e4920fdea875b28f18785",
		"vector/text8/shards4/int8":  "09ba8bbeccc83ef355b7e33a4a4ef5363f20e26c22b34364cc131a978e86307b",
		"scalar/amazon/shards0/f32":  "e51f9d64b53d2eda6150a6a54362d646df19015575b372b040d452fd056f20cb",
		"scalar/amazon/shards0/int8": "e1526c0247769b44faca2203b20633dea25a460f3fb03701fee20eaf4b36c1ca",
		"scalar/amazon/shards4/f32":  "f8b6304d4028399084b980d217ae9262c7dd7706d3e9cd10e0b832c755a0b90f",
		"scalar/amazon/shards4/int8": "cc84faa8dda181e70eac0c96f32fbcffe062c4a06a9777f3e4e7b6a252258312",
		"scalar/text8/shards0/f32":   "0de5c245f1c7048ebe6a2e93cc1b47fa20e988187bd56db68f6fcea9d6a2658e",
		"scalar/text8/shards0/int8":  "7be79678d6103350ccf1aa6ecf6d7fb2dfce3f24b74f922b1e489da9a51b1f2f",
		"scalar/text8/shards4/f32":   "ebb5c865705ea149e0cf7d1de937342895fc57112905c284b41f3b6061013b27",
		"scalar/text8/shards4/int8":  "c19ee863ce4279660f755f025d025ba1480809fdbce81b7eda1cc612254fdc82",
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		for sn, sh := range shapes {
			for _, shards := range []int{0, 4} {
				cfg := sh.cfg
				cfg.Shards = shards
				n, err := New(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := newPlanted(cfg.InputDim, cfg.OutputDim, sh.protoNNZ, 9)
				trainN(t, n, p, 36, 32)
				queries := p.batch(40)
				xs := make([]sparse.Vector, queries.Len())
				ks := make([]int, len(xs))
				for i := range xs {
					xs[i], ks[i] = queries.Sample(i), 1+i%7
				}
				ks[0] = cfg.OutputDim + 5 // clamped to every label
				f32 := n.Snapshot()
				int8, err := f32.Quantize(8)
				if err != nil {
					t.Fatal(err)
				}
				for repr, pred := range map[string]*Predictor{"f32": f32, "int8": int8} {
					name := fmt.Sprintf("%s/%s/shards%d/%s", m, sn, shards, repr)
					h := sha256.New()
					put := func(v any) {
						if err := binary.Write(h, binary.LittleEndian, v); err != nil {
							t.Fatal(err)
						}
					}
					// Sampled first: its random top-up is seeded by the call
					// index, which the exact entry points also advance.
					for _, x := range xs {
						ids, err := pred.PredictSampled(x, 5)
						if err != nil {
							t.Fatal(err)
						}
						put(int32(len(ids)))
						put(ids)
					}
					scores := make([]float32, cfg.OutputDim)
					for _, x := range xs {
						pred.Scores(x, scores)
						put(scores)
					}
					for _, ids := range pred.PredictBatchK(xs, ks) {
						put(int32(len(ids)))
						put(ids)
					}
					got := hex.EncodeToString(h.Sum(nil))
					if got != want[name] {
						t.Errorf("%s: serving outputs hash to %s, want %s", name, got, want[name])
					}
				}
			}
		}
	}
}
