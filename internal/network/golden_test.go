package network

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/simd"
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
