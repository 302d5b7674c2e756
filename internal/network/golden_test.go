package network

import (
	"bytes"
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
	for _, write := range []func(io.Writer) error{n.hidden.Serialize, n.output.Serialize, n.smp.serialize, n.writeRNG} {
		if err := write(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainStatsSHA runs TrainBatch over batches of p with the health guards on
// and hashes what every call returned: the reported loss, active-set total,
// non-finite count and rebuild flag of each step, in step order.
func trainStatsSHA(t *testing.T, n *Network, p *plantedProblem, batches, batchSize int) string {
	t.Helper()
	n.SetGuards(true)
	h := sha256.New()
	for i := 0; i < batches; i++ {
		st := n.TrainBatch(p.batch(batchSize))
		if st.Samples != batchSize {
			t.Fatalf("batch %d: processed %d samples, want %d", i, st.Samples, batchSize)
		}
		for _, v := range []any{st.Loss, st.ActiveSum, st.NonFinite, st.Rebuilt} {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingBitsPinned trains the two benchmark regimes in miniature — an
// amazon-like model (hidden 128, ReLU, DWTA, a few non-zeros per input) and
// a text8-like one (hidden 200, linear, SimHash, one-hot inputs) — through
// both engines, the phase engine on four shards and on one, and compares the
// trained state and the BatchStats of every step with hashes recorded before
// the code that produced them moved: the state literals of hogwild1 and
// shards4 before the active-set walks became single kernel calls, the shards1
// row and every stats literal on the commit before the two table layouts
// became one sampler, and the text8deep row (a text8-like model with a dense
// middle layer, HOGWILD on one worker) before the HOGWILD stripes walked the
// output layer row-major. The text8 and text8deep hogwild1 rows were
// re-recorded when that walk began to sum each sample's input gradient in
// row-walk order instead of list order (layer.AccumulateStripe), which moves
// the bits of every model trained through row-major stripes and of no other;
// TestStripeWalksBitIdenticalToPerSample checks the new order against its own
// reference and TestRowMajorTrainingTracksPhaseEngine the training it yields.
// Every kernel tier has its own literals: tiers differ from each other in
// dot-product reduction order, but no tier may differ from its own past.
//
// The HOGWILD rows also check which output walk their stripes took, so that
// the pins cover both: text8's stripes select a touched row ≈ 5 times and
// mostly walk row-major, text8deep's too, amazon's ≈ 1.4 times and never do.
func TestTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	type shape struct {
		cfg      Config
		protoNNZ int
		rowMajor bool // most HOGWILD stripes walk the output layer row-major
		engines  []string
	}
	all := []string{"hogwild1", "shards1", "shards4"}
	shapes := map[string]shape{
		"amazon": {Config{InputDim: 1500, HiddenDim: 128, OutputDim: 2000,
			Hash: DWTA, K: 4, L: 10, MinActive: 48, LR: 0.01, RebuildEvery: 10, Seed: 101}, 12, false, all},
		"text8": {Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102}, 1, true, all},
		"text8deep": {Config{InputDim: 600, HiddenDim: 200, HiddenLayers: []int{40}, OutputDim: 600, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 96, LR: 0.01, RebuildEvery: 10, Seed: 103}, 1, true, []string{"hogwild1"}},
	}
	engines := map[string]func(*Config){
		"hogwild1": func(c *Config) { c.Workers = 1 },
		"shards1":  func(c *Config) { c.Shards, c.Workers = 1, 2 },
		"shards4":  func(c *Config) { c.Shards, c.Workers = 4, 2 },
	}
	type pin struct{ state, stats string }
	want := map[string]pin{
		"avx512/amazon/hogwild1": {"3657991be757f0c180a85207cf3cd911f6040c09f0b68f91d0e7c3aaa3eb614a", "4c48c37ce5db2bdc5b61c493614ec884cb5ca366426c60e926e9921d0a4ccb53"},
		"avx512/amazon/shards1":  {"bcd453f1bb8009fbf813a8418cd53792211d2afecb1fdbe5c547c2f0522732b5", "e78668ec7e465b4ee793bf56e688070dfe568ead33242a64ec3c418d52d40454"},
		"avx512/amazon/shards4":  {"9e619e9967c8bd46b93edcee4bc90ffd5608fe71b5bf40c55f7cf910d36a9eef", "59e5842269a8c389b1212cb95378fcc26851a463a8ca0905fa4d5b1b500858d2"},
		"avx512/text8/hogwild1":  {"28c33473c02314ce61f43d7da2e1b9f93b43ec35364e00bc2f7904e676cc8157", "729cdf5c6c80f79c11c8bfc92634da52ff3f32c3e46ec9521bc7b46ecddad9c2"},
		"avx512/text8/shards1":   {"a3ac5a0e96bf84d41a9ec229eb6465159cb9fbf0ef7300b679db846c65fca3f7", "9ded577bef0105561d9f652dff4201f4b18d1ce8c2e85a1409181f1fa25e3912"},
		"avx512/text8/shards4":   {"eb9875086c0458c1d935b21f68d7593a89a7f9bedea1f41d8d615a7072039b63", "7de7b6b6ccc71c95dcda2871fb02e440ebf36363c5d5b132e9aa5de3093dc05c"},
		"avx2/amazon/hogwild1":   {"464f272a514893168a4ad1591a8282a86c28df9807c49f2b0bdbaaa8db2430b3", "1a8de18af37fdb7c1cf4a559730bb15a2c53c2e5bb99605930cddffe81eddb62"},
		"avx2/amazon/shards1":    {"4ba3958d7d38ba69ff6a96c7eddcf986c8dbf92ebc556212bbd0ecefc53dc7e8", "f3909196592652ea6c9df8999fc258c3d64939fa1ef2a3fc1f71c44eb8d63b59"},
		"avx2/amazon/shards4":    {"9196031369cc0ec50fa85b407fd3901c795f6f496c85ddf578e8697209c1e22b", "bfca2f66de087e0831b8c2412a52b941209adb79036751053bce66505bd0e2b2"},
		"avx2/text8/hogwild1":    {"f83a47be7393bd079953472c1341c52645c78df106ab7a4b074a504eb03bdbe8", "fc33895b3fe0c0b0f5765230766cbee265339b10da0dd5e91f88533999952c01"},
		"avx2/text8/shards1":     {"8d952a6e374361f7d78268e82f9f186fb6cbccf5e5187055b096f13efc6ac8eb", "53eb4b2bac6624b838d6d455f823d5ca91c401b9bbddfab8fb13c711c0fd83b6"},
		"avx2/text8/shards4":     {"0f83550e4e71118c27763454710c6e1753d26d13bf380908e0aa9a4771580e4d", "91947af248c8a67319d5f9a9bb6078a1cc412ea472a8492b1b86a1d36ddcd4ad"},
		"vector/amazon/hogwild1": {"fbe6475ef56c3452cc56dc24070b99ad4a0ba2d4f17100d55a2d7460ceaff799", "d60d760ed7a58ec65459597bb7a28c900d6ba9a9882a97435290fea3eaa0f989"},
		"vector/amazon/shards1":  {"8aac6844915b8daaca967098040b8036c2d88a18e3cfc9e81b6fe080f9962249", "93e52c9583d66065f4d12a9bd8d6b226653950fedc52980ec03844a211f3d2a7"},
		"vector/amazon/shards4":  {"d5f2d192f70856dd937aee9108fd75f45f746ccb4b7ccaed19c02df43441d119", "132dde8963d8c202cb8d22da83503a1fee849846b2904c80942c4439645e651a"},
		"vector/text8/hogwild1":  {"953e287a1b4f7c33f4fd4231ff6277111ea250295554c0cb047be0709735d2db", "034a4711c688b86c5e2632c1209d883703b1163965f1554436e24de3bb716aca"},
		"vector/text8/shards1":   {"077108df956d90911350aac7295fc9a1d231148a94519da828510b83a571a9f1", "5496297d69c88e8ae4346754636124b9e18dc703c0bcaba7a3cd176d6a78d670"},
		"vector/text8/shards4":   {"2ea1064027eeb1a05f69faf7e16904e9417f9c66eeb642d73f11d6d74f8f2b04", "430ce098b827778993ba2741681174ca7be7d620082e51422b6ab64d8f267eaf"},
		"scalar/amazon/hogwild1": {"6b91a72e8a6b64ee1fb02fd3cb815c9e3cf2087aee209c06303ca08d43b0133f", "1dd7d05564cd6c85f707a48c9d8db2ec07e766edde56690848eb7fc936a46fa3"},
		"scalar/amazon/shards1":  {"5c1d74af2cac1493b8db2400c500cbb8be7187c898eb0b39c63510f7f265cb6d", "1bd0daa8f2ee6c2d11a97e656fecb86fad466f7940e650973651a3441b881f79"},
		"scalar/amazon/shards4":  {"af0474ba9ff312279914b007f9e5fef17520f489b1202087ffe0d8c4038efdec", "929750bf6168265b88d416552aed6e9574fcef70180483e13e148d7879b2c29d"},
		"scalar/text8/hogwild1":  {"eaa8f8be8934b7383d975db62de761f421f8efabdd3713ce8ccb6f22ca07f198", "010174b4ec3db87b1652aa358774fe6898b741abd6eb9053a6703048c45f9b44"},
		"scalar/text8/shards1":   {"5fd525b8fe11cd8a3e8babbb2bb62aa481beddb7847e0a25c128d77435c0acf4", "91c94565999876e1cad9941f21e09d3c2e207afc1ec8130deb83c45f373992ee"},
		"scalar/text8/shards4":   {"7276a8bd48a1c496ffc17fcbc4184ee9d965ed7a491ceacc242a490725bcd7a0", "4b09a2a37631d88ade9bcc110435a01027faa98dffc7d6cb934621fa96e41ffb"},
		// Recorded on the parent of the stripe-major output walks, re-recorded
		// with the text8 rows for the row-order input gradient.
		"avx512/text8deep/hogwild1": {"997465c81367d9fcbaf54f4b8b7583855a9fc59a6497f84d06f7a1e60d2ab8eb", "a93b3114f20e79fbbc6ed377397fc7841c1fc0ac6173c1daa3f59554383adef1"},
		"avx2/text8deep/hogwild1":   {"4312f3ec4e6a0eb98725f404171cbd7c450c0cc474650701511c0f3d433e090d", "f22636b639e22e0406d642b690799837a480d3c6f1893f79877f3069231aff25"},
		"vector/text8deep/hogwild1": {"083fe06ac4b513d8fb38488f72c447dca87401a311dc8ee859422f4ee9fccc62", "7847a41214c76f584c19a89c11b6dc503cf8dae44d82d843cff61ce78fe8a022"},
		"scalar/text8deep/hogwild1": {"1957ac19d3412a15b4fc1bd8d83911a254c19312e6b10bfd483d556f749730e6", "5511a15fcfe90b887c1c360ea644a163bc3522cd4eb5933738f43f7c33e72750"},
	}
	defer simd.SetMode(simd.CurrentMode())
	for _, m := range simd.AvailableModes() {
		simd.SetMode(m)
		for sn, sh := range shapes {
			for _, en := range sh.engines {
				name := m.String() + "/" + sn + "/" + en
				cfg := sh.cfg
				engines[en](&cfg)
				n, err := New(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := newPlanted(cfg.InputDim, cfg.OutputDim, sh.protoNNZ, 7)
				got := pin{stats: trainStatsSHA(t, n, p, 36, 32)}
				got.state = trainStateSHA(t, n)
				if got != want[name] {
					t.Errorf("%s: trained state and step stats hash to\n%q: {%q, %q},\nwant %+v", name, name, got.state, got.stats, want[name])
				}
				if rm, ps := n.StripeWalks(); cfg.Shards == 0 && ((rm > ps) != sh.rowMajor || !sh.rowMajor && rm > 0) {
					t.Errorf("%s: %d stripes walked the output layer row-major, %d per sample", name, rm, ps)
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
// walk's code, which "batched equals single" no longer is. The text8/shards0
// rows were re-recorded when HOGWILD stripes began to sum the input gradient
// in row-walk order: that model trains through row-major stripes, so its
// weights, and with them its scores, moved; the serving code did not.
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
		"avx512/text8/shards0/f32":   "8946d105560d8d31de26f018f7182687709437fbc095603d775bf2d756c7ad70",
		"avx512/text8/shards0/int8":  "ac149e608b805d631ae20c8dd9ef1008cd4b07bbb59c3d19229e0f22a0006ca1",
		"avx512/text8/shards4/f32":   "7bf5e9a7de1efe551815f0695ae12f774b729858e1040e248889be8dbf8445f1",
		"avx512/text8/shards4/int8":  "cd06fd50cdadcb11ca64b99a278d82c7274914f151270a50777230fdf8be5815",
		"avx2/amazon/shards0/f32":    "1ba77c0f377a1d3837e514cd9a15e4294164875dd042341c94420a5f8cbde982",
		"avx2/amazon/shards0/int8":   "9b11364e8b2a98c4433e6643489fdc4085ddc84dd15d0e05e21abef9b8189135",
		"avx2/amazon/shards4/f32":    "d27e8dc1dbbe35e5b4e07b371b892b9270528d185bef968be1c73640dcc107e3",
		"avx2/amazon/shards4/int8":   "49fb0da8e268c50f5010c7ca845cf9d21812229447bf66d0183c392bda013717",
		"avx2/text8/shards0/f32":     "8f1caa4d5efe1f973e53e72e7a44be98c803a0ab17bc8c8915958083669f7722",
		"avx2/text8/shards0/int8":    "5c0de53d4a55f0df0df4e6bac5ce12be6abab6da9ffba3fa89a73ce0db4050c8",
		"avx2/text8/shards4/f32":     "8e0a4a5166bc66d4e0ca6e872e7836abd157ea5984fc97983b6c9cd8d289bacd",
		"avx2/text8/shards4/int8":    "770a0954f5f77c345978cc4d4dd1bed89b5126aad8e6e93d1e6da3befc18c00b",
		"vector/amazon/shards0/f32":  "dd96350b5593d3a59629760a0f0835ba8e974d869efebc278dea1db9ed59dd7e",
		"vector/amazon/shards0/int8": "f685443700296815582e4d2b813e33f744bab8da8192e4f6ac72971731f18cbb",
		"vector/amazon/shards4/f32":  "a34955a410e8b6555562b60d19fdb36f2858982b2d5888f500474071f7a40994",
		"vector/amazon/shards4/int8": "3a02c0d76e8cfe2b139f846075766d6e5aded3be051510c455fc144f67c08eb3",
		"vector/text8/shards0/f32":   "ebc0d1ea939d0175f85447e503f262a4cc3aefd9c2c85df625450d5bd6d537b0",
		"vector/text8/shards0/int8":  "6d8da8082ce4bf289ab33305b6120f15a4ddd054c6d4b44cb77998a22d7f82d8",
		"vector/text8/shards4/f32":   "eb9fd7043ae90a5d3e629e71816f004f4412e2eaaa1e4920fdea875b28f18785",
		"vector/text8/shards4/int8":  "09ba8bbeccc83ef355b7e33a4a4ef5363f20e26c22b34364cc131a978e86307b",
		"scalar/amazon/shards0/f32":  "e51f9d64b53d2eda6150a6a54362d646df19015575b372b040d452fd056f20cb",
		"scalar/amazon/shards0/int8": "e1526c0247769b44faca2203b20633dea25a460f3fb03701fee20eaf4b36c1ca",
		"scalar/amazon/shards4/f32":  "f8b6304d4028399084b980d217ae9262c7dd7706d3e9cd10e0b832c755a0b90f",
		"scalar/amazon/shards4/int8": "cc84faa8dda181e70eac0c96f32fbcffe062c4a06a9777f3e4e7b6a252258312",
		"scalar/text8/shards0/f32":   "5183f8805d82e18642f969a4f89033b041ad0ffed33f922523293a59639216b2",
		"scalar/text8/shards0/int8":  "ea005c35f3edfdc53f131f91dda743a707b1bbc8eed2979880eae798affd9799",
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

// TestSnapshotWireBytesPinned pins the bytes a model leaves the process as —
// replication base, deltas across an interval without and with a table
// rebuild, the config fingerprint and the checkpoint — for an un-sharded
// model, the phase engine on one shard and on four, and a UniformSampling
// model, whose streams carry no tables section at all. The literals were
// recorded on the commit before the two table layouts became one sampler and
// with the scalar tier, so they hold under every SLIDE_KERNEL_MODE. The
// shards0 row was re-recorded when HOGWILD stripes began to sum the input
// gradient in row-walk order: its 40-output model walks row-major, so its
// trained weights moved; the config checksum and the encoders did not. Every
// pinned stream is also fed back through its decoder and must come out again
// byte for byte.
func TestSnapshotWireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	defer simd.SetMode(simd.CurrentMode())
	simd.SetMode(simd.Scalar)
	base := Config{InputDim: 60, HiddenDim: 16, HiddenLayers: []int{12}, OutputDim: 40,
		Hash: DWTA, K: 2, L: 8, BucketCap: 32, MinActive: 8, LR: 0.01, Workers: 1, RebuildEvery: 5, Seed: 301}
	models := map[string]func(*Config){
		"shards0": func(*Config) {},
		"shards1": func(c *Config) { c.Shards = 1 },
		"shards4": func(c *Config) { c.Shards = 4 },
		"uniform": func(c *Config) { c.UniformSampling = true },
	}
	want := map[string]map[string]string{
		"shards0": {
			"base":          "cde91c3d88a1dda8900baa65432c264009896ba0c5b54f34400f2d3d2a21a241",
			"delta":         "78c84102ee99853379812cb743cb9b644d0ccab0811049939dc637bf6f981a58",
			"delta+rebuild": "794b3d40bdb6d38e81098c0b93e41115d00a824e742317d8002b0ede526035f6",
			"checksum":      "cf060de0",
			"checkpoint":    "8d8b876f022c0ec2436bea320d4c8b5e805e0142901e0dc62d68c7b9b973f277",
		},
		"shards1": {
			"base":          "1922f2c7f7ba5cd27031ec7e25a6bfd05e911f2c56934759ac60ac80177b0c98",
			"delta":         "36b0d1140ed7aca490cb6d0e57d9fd2dd3145e0aed44910e6a904396d4e586bb",
			"delta+rebuild": "7d312d86abdc78ceffc1de79c6ddc958a2ee1f8b73e3350f48cbda72c46d833f",
			"checksum":      "3840cebb",
			"checkpoint":    "8241a437a5094d0c5351ede494d52f1a1f9b707a9fa67c8f01b3553be62c5c1a",
		},
		"shards4": {
			"base":          "2a62a902cc8dc909019b99eb289e33cab69bf05f9c481a14d1e16670da06dd86",
			"delta":         "61f0944c3c939ed53e2bc6eff23a31fbcc67c9fc9923617a59a6f4c9075bfd7a",
			"delta+rebuild": "d82ef3982619add3e6a8bbfec1b4cc275a53318b6346ba8a996e1647d9e9752f",
			"checksum":      "506131f1",
			"checkpoint":    "366d0571969698957dfa49df8693cd601022c9463f08eabbf11eb77e262fa0f3",
		},
		"uniform": {
			"base":          "f43195c4af7b32358d3deae067fe23045fc06f90f8b0317069b3e58983781b1b",
			"delta":         "dc6ae36fa935f71f0f75c9739ae0579ad6472a0d52936c496c29008674c1868c",
			"delta+rebuild": "a995b93af9b6b19b95400891f41a53908782e2f15bc99fbde5b68886a199f303",
			"checksum":      "12c618cb",
			"checkpoint":    "ce1f93ae5716fcc6f7667a247a37ae1be200af875779034a3c7ba8a1d3ebe51d",
		},
	}
	sha := func(parts ...[]byte) string {
		h := sha256.New()
		for _, p := range parts {
			binary.Write(h, binary.LittleEndian, int64(len(p)))
			h.Write(p)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	baseSHA := func(b BaseParts) string { return sha(b.Config, b.Hidden, b.Middle, b.Output, b.Tables) }
	deltaSHA := func(d DeltaParts) string {
		steps := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(d.FromStep)), uint64(d.ToStep))
		return sha(steps, d.Hidden, d.Middle, d.Output, d.Tables)
	}
	for name, model := range models {
		cfg := base
		model(&cfg)
		n, err := New(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.EnableDeltaTracking()
		p := newPlanted(cfg.InputDim, cfg.OutputDim, 5, 11)
		sampled := !cfg.UniformSampling

		// Base at step 3; a delta to step 4 (no rebuild in the interval); a
		// delta to step 6 (the scheduled rebuild after batch 5 inside it).
		trainN(t, n, p, 3, 16)
		p3, d := n.SnapshotDelta()
		if d != nil {
			t.Fatalf("%s: first snapshot under tracking returned a delta", name)
		}
		trainN(t, n, p, 1, 16)
		p4, d4 := n.SnapshotDelta()
		trainN(t, n, p, 2, 16)
		p6, d6 := n.SnapshotDelta()
		if d4 == nil || d6 == nil || d4.TablesChanged || d6.TablesChanged != sampled {
			t.Fatalf("%s: deltas %+v %+v do not straddle the rebuild as intended", name, d4, d6)
		}
		if p3.HasTables() != sampled {
			t.Fatalf("%s: HasTables = %v", name, p3.HasTables())
		}
		var ckpt bytes.Buffer
		if err := n.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		b3, w4, w6 := encodeBaseParts(t, p3), encodeDeltaParts(t, d4), encodeDeltaParts(t, d6)
		got := map[string]string{
			"base":          baseSHA(b3),
			"delta":         deltaSHA(w4),
			"delta+rebuild": deltaSHA(w6),
			"checksum":      fmt.Sprintf("%08x", d6.ConfigChecksum()),
			"checkpoint":    sha(ckpt.Bytes()),
		}
		for k, g := range got {
			if g != want[name][k] {
				t.Errorf("%s: %s hashes to %q, want %q", name, k, g, want[name][k])
			}
		}
		if p6.ConfigChecksum() != d6.ConfigChecksum() {
			t.Errorf("%s: predictor and delta disagree on the config fingerprint", name)
		}
		if (w4.Tables != nil) || (w6.Tables != nil) != sampled {
			t.Errorf("%s: delta tables payloads present = %v, %v", name, w4.Tables != nil, w6.Tables != nil)
		}
		if ts := n.Tables(); (ts != nil) != (name == "shards0") {
			t.Errorf("%s: Tables() = %v", name, ts)
		} else if ts != nil {
			var direct bytes.Buffer
			if err := ts.Serialize(&direct); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct.Bytes(), encodeBaseParts(t, p6).Tables) {
				t.Errorf("%s: the tables payload is not TableSet.Serialize of the single set", name)
			}
		}

		// Round trips: base → replica re-encodes to the base; each applied
		// delta lands on the trainer's snapshot at that step; the loaded
		// checkpoint saves to the same bytes.
		r3, err := NewPredictorFromBase(b3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r4, err := r3.ApplyDelta(w4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r6, err := r4.ApplyDelta(w6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pair := range []struct {
			step          int
			local, remote *Predictor
		}{{3, p3, r3}, {4, p4, r4}, {6, p6, r6}} {
			if l, r := baseSHA(encodeBaseParts(t, pair.local)), baseSHA(encodeBaseParts(t, pair.remote)); l != r {
				t.Errorf("%s: replica at step %d re-encodes to %s, trainer snapshot to %s", name, pair.step, r, l)
			}
		}
		loaded, err := Load(bytes.NewReader(ckpt.Bytes()), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
			t.Errorf("%s: the loaded checkpoint saves to other bytes", name)
		}
	}
}
