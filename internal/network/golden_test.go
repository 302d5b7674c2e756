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
// reference and TestOutputWalksTrainAlike the training it yields. The text8
// shards1 and shards4 rows were re-recorded when the phase engine's shards
// took the same walk, for the same reason. The BF16 rows pin both BF16
// precisions on both engines; see their comments for which held when
// BF16Act became float32 arithmetic on rounded activations. Every kernel tier
// has its own literals: tiers differ from each other in dot-product reduction
// order, but no tier may differ from its own past.
//
// Every row also checks which output walks its stripes and shards took, so
// that the pins cover both: text8's select a touched row ≈ 5 times and
// mostly walk row-major (text8deep's too, and BF16Act's like FP32's),
// amazon's ≈ 1.4 times and never do, and BF16Both's bfloat16 rows never do.
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
	// The BF16 precisions on both regimes and both engines. BF16Act rows are
	// float32 and walk like FP32's; BF16Both's bfloat16 rows never walk
	// row-major.
	for _, prec := range []layer.Precision{layer.BF16Act, layer.BF16Both} {
		for _, sn := range []string{"amazon", "text8"} {
			sh := shapes[sn]
			sh.cfg.Precision = prec
			sh.rowMajor = sh.rowMajor && prec == layer.BF16Act
			sh.engines = []string{"hogwild1", "shards4"}
			shapes[sn+"-"+prec.String()] = sh
		}
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
		"avx2/amazon/hogwild1":   {"464f272a514893168a4ad1591a8282a86c28df9807c49f2b0bdbaaa8db2430b3", "1a8de18af37fdb7c1cf4a559730bb15a2c53c2e5bb99605930cddffe81eddb62"},
		"avx2/amazon/shards1":    {"4ba3958d7d38ba69ff6a96c7eddcf986c8dbf92ebc556212bbd0ecefc53dc7e8", "f3909196592652ea6c9df8999fc258c3d64939fa1ef2a3fc1f71c44eb8d63b59"},
		"avx2/amazon/shards4":    {"9196031369cc0ec50fa85b407fd3901c795f6f496c85ddf578e8697209c1e22b", "bfca2f66de087e0831b8c2412a52b941209adb79036751053bce66505bd0e2b2"},
		"avx2/text8/hogwild1":    {"f83a47be7393bd079953472c1341c52645c78df106ab7a4b074a504eb03bdbe8", "fc33895b3fe0c0b0f5765230766cbee265339b10da0dd5e91f88533999952c01"},
		"vector/amazon/hogwild1": {"fbe6475ef56c3452cc56dc24070b99ad4a0ba2d4f17100d55a2d7460ceaff799", "d60d760ed7a58ec65459597bb7a28c900d6ba9a9882a97435290fea3eaa0f989"},
		"vector/amazon/shards1":  {"8aac6844915b8daaca967098040b8036c2d88a18e3cfc9e81b6fe080f9962249", "93e52c9583d66065f4d12a9bd8d6b226653950fedc52980ec03844a211f3d2a7"},
		"vector/amazon/shards4":  {"d5f2d192f70856dd937aee9108fd75f45f746ccb4b7ccaed19c02df43441d119", "132dde8963d8c202cb8d22da83503a1fee849846b2904c80942c4439645e651a"},
		"vector/text8/hogwild1":  {"953e287a1b4f7c33f4fd4231ff6277111ea250295554c0cb047be0709735d2db", "034a4711c688b86c5e2632c1209d883703b1163965f1554436e24de3bb716aca"},
		"scalar/amazon/hogwild1": {"6b91a72e8a6b64ee1fb02fd3cb815c9e3cf2087aee209c06303ca08d43b0133f", "1dd7d05564cd6c85f707a48c9d8db2ec07e766edde56690848eb7fc936a46fa3"},
		"scalar/amazon/shards1":  {"5c1d74af2cac1493b8db2400c500cbb8be7187c898eb0b39c63510f7f265cb6d", "1bd0daa8f2ee6c2d11a97e656fecb86fad466f7940e650973651a3441b881f79"},
		"scalar/amazon/shards4":  {"af0474ba9ff312279914b007f9e5fef17520f489b1202087ffe0d8c4038efdec", "929750bf6168265b88d416552aed6e9574fcef70180483e13e148d7879b2c29d"},
		"scalar/text8/hogwild1":  {"eaa8f8be8934b7383d975db62de761f421f8efabdd3713ce8ccb6f22ca07f198", "010174b4ec3db87b1652aa358774fe6898b741abd6eb9053a6703048c45f9b44"},
		// Recorded on the parent of the stripe-major output walks, re-recorded
		// with the text8 rows for the row-order input gradient.
		"avx512/text8deep/hogwild1": {"997465c81367d9fcbaf54f4b8b7583855a9fc59a6497f84d06f7a1e60d2ab8eb", "a93b3114f20e79fbbc6ed377397fc7841c1fc0ac6173c1daa3f59554383adef1"},
		"avx2/text8deep/hogwild1":   {"4312f3ec4e6a0eb98725f404171cbd7c450c0cc474650701511c0f3d433e090d", "f22636b639e22e0406d642b690799837a480d3c6f1893f79877f3069231aff25"},
		"vector/text8deep/hogwild1": {"083fe06ac4b513d8fb38488f72c447dca87401a311dc8ee859422f4ee9fccc62", "7847a41214c76f584c19a89c11b6dc503cf8dae44d82d843cff61ce78fe8a022"},
		"scalar/text8deep/hogwild1": {"1957ac19d3412a15b4fc1bd8d83911a254c19312e6b10bfd483d556f749730e6", "5511a15fcfe90b887c1c360ea644a163bc3522cd4eb5933738f43f7c33e72750"},
		// Re-recorded when the phase engine's shards took the stripe walk: the
		// text8 shards cross over and sum each ∇h partial in row-walk order from
		// the shard's first row. With the per-sample walk forced, these runs
		// still produce the literals recorded before.
		"avx512/text8/shards1": {"e3c27b6b41ee295d8fb2eafa948c957f0244278828eb1f0e49df37020f909bf2", "83a90cfcb4c181cb6915eb8f4b116f824de08a34533ada74036cc379a448946e"},
		"avx512/text8/shards4": {"fc66c329c2bd1e6c5304fa409d9c49510dd0f157c16e74cf466e6d0974ba9b32", "3c6a715fb34d465d8a0eb00a8b933c3da99d1c5c6efdad414b489cf5950578d1"},
		"avx2/text8/shards1":   {"67d3026204d5f4fa56eb97c08cc5d62fc8d53ee9e9cc09e6de37e73b062c52b1", "0f1056f60e503be5822d939a045393149f963634eb6f3517bb810b810d1371e4"},
		"avx2/text8/shards4":   {"1099981e2c510bf3d4a1a1eb862d8a51577096d715c3aa62e372796b247b3f75", "62be15687db294e09e267d5223afcc7f8eb2bab8ce327269aeaa56b0042c5528"},
		"vector/text8/shards1": {"bf455a8e1c6cefe135ff7c9d72b25df6248597a8a27e7b000b009987d3142783", "972d983e64d0e72bb7a1adcabfff2d719796c73d878e3e6a1ba20ca31b7550d8"},
		"vector/text8/shards4": {"15c802a38748b6f89d55c907a6b75697a3cb892a32083353d172862539aae0fa", "ae944f8c145e9206c203f2af8100dd3bf6b9e13bbca56fe9fc93b5d8f69d3016"},
		"scalar/text8/shards1": {"efca755dd0b3cb61fddab6a7118c60855071492ac4a8b0b3bc4f665bb3511590", "8b7a5b74dd2eaedd6a6cae5d69ea33472371864279e2c1b4945e2607347c131d"},
		"scalar/text8/shards4": {"fe5f54e9e2635444b44646635ca4c5da0d4a022da3c4327cc1fe6e6f21288afa", "16a9843ec3106849615a20b4d65c4ccbd145efa1a35bdbe82ffe767a2f266735"},
		// Recorded on the parent of BF16Act's float32 walks, and held by the
		// change: BF16Both on every tier, BF16Act amazon on the Go tiers, where
		// Dot sums as DotBF16F32 did.
		"vector/amazon-bf16-act/hogwild1":  {"327ad15de77bbf4067259ecf5565fdf2ae695a6edf77004b4e4b637ab430d718", "2f04aabd0bfc2eb9441c4bd7d39f5554cfb42d75c8bb9b34684471283e3cdd44"},
		"vector/amazon-bf16-act/shards4":   {"436bf8f33631095aae1e756d62efb27a06e72d02cf2ea548b4efdc66ac4b4ff5", "e9e6aa0a9935d1c066b6476888002ced95955611d39e820c0003f1dd5cd5cfae"},
		"scalar/amazon-bf16-act/hogwild1":  {"0048d1511d7767d4b3e5ce2ef6b51291c2f210e242967578022b142f95f66c39", "0124a2882f49156681e3a0c79c823cf69d3d27f5fc63de5188352fca685f01cb"},
		"scalar/amazon-bf16-act/shards4":   {"104a500f260cc965c3a815ae9ee2ed73a597012a4852f0b5b8cec6266af12202", "60966a3e0d9931de95d96acb85186e048054578b462f0dffefb12b9ffd934706"},
		"avx512/amazon-bf16-both/hogwild1": {"33dacda3e0257e0fcf17369ca5a42f79d9e4479c37797aa663f54086225e227c", "6e390f0c06e332d159b41f326266a0618cf10a151e4a0ab110c55ddcedb46b06"},
		"avx512/amazon-bf16-both/shards4":  {"5c448632e3c912de984d98f871e61a00fc227cd245f712aec07976f67142e2a2", "5daf6993e314f1d3fa653f901a82c93910f8baa284fc2b1f7c7c2ef2b006965f"},
		"avx2/amazon-bf16-both/hogwild1":   {"ab8f80b854831d9e56cc24a8092700e13a61f306028f76c38685298792e19560", "1876b71eaf7c992d1c78b7fb01a10bafe6707b1739f150e7f2e9520113cc73eb"},
		"avx2/amazon-bf16-both/shards4":    {"a50731829abbd527e847224e8f8c6b00756f512ce97d5e4a0df8786432a905fc", "7f17d434abf39f59e9e0b6b3c9e67622312cdd657384b319c58e263523b6f82e"},
		"vector/amazon-bf16-both/hogwild1": {"3a0433dc2f989bc2919b8c9dcb472f1d67c926edb6bded1466e1dfd4d2d372f2", "b0e7c911b3356fc11f474aa0606423c436aa9cce9ff9cc228d03c1654ee53277"},
		"vector/amazon-bf16-both/shards4":  {"f75efd61f81d390863291ef54f70402e9b22a77ab277a41f01de8286122f819c", "a399986d24b69582c2d46cec757915720b227e548ead392a350ba5aec9fe105a"},
		"scalar/amazon-bf16-both/hogwild1": {"0e1af61b04bcfe8da04b9cbb909b7378ee9db0ef2de28faef304fad98704dec7", "bd27ab2d922d76e630c56540376aa14b3a62d6e264328e6086464d7d0a4ac26a"},
		"scalar/amazon-bf16-both/shards4":  {"7f611b44fb16f14be6ba6a3df9df59398d4e0a5cec1f3c55a347f8be6c75112d", "b731cb52b6e255a4372d715d92e0e1ea8d311b02cd3f2c32cf5892063509001b"},
		"avx512/text8-bf16-both/hogwild1":  {"4a1651884f8e66a88abbea254e8718863e57352043192abb772f8d784da66eb3", "825a000c21a7a85843069f30bd4eae7221d48ad7bbda62b9e5a64f63ce50d951"},
		"avx512/text8-bf16-both/shards4":   {"57809618349bf7a2db876b7a92221403b0d406c2eff1e4e8f9e76e6db65a6e0e", "fe0257f881937a42f9ccebf97f2c0748a872480fab9f6b68f8e45f48c99fa10f"},
		"avx2/text8-bf16-both/hogwild1":    {"3636ea46c4a7b4e7fae7cdb87581da656cfca0a6e874f9087475a226385afa3f", "8fe78a6c221e99ef19fc90d2dccea6772d26eac05faddb65e643855e0f935a4b"},
		"avx2/text8-bf16-both/shards4":     {"85221be0807eba3163c008434ace11747cfae2c140cb0d9871ba399ebd425a47", "c8ea1de86cb140b1cb516ab5c2da6f989d63a33d3872a6eecc74c03d21d15f91"},
		"vector/text8-bf16-both/hogwild1":  {"46578fe1ecf31527303644217a249a8b2346942dc41f1c0d1501720df9c8a48f", "dce622e6c893c959f2c5952973921dc4b76eb9de051e52a93fd194865e9b1107"},
		"vector/text8-bf16-both/shards4":   {"fcb0284cedde5a469c28518fe40b441526aefe75b536405cc98a0c0af9789ab1", "cdcdc7acfab425fb9acceac6c16accb66c6a3d8da9330f27924304d12e36e6c1"},
		"scalar/text8-bf16-both/hogwild1":  {"c287bd5c2da29c7a9d7ad0752b06534dd2c792a28574ba88b368f0dacbb1f3db", "f21bcdd2992ee760dba15616172bf6f68d1d841cf5d637356d633794770a90d9"},
		"scalar/text8-bf16-both/shards4":   {"b77b298cff0ecc68f3a6e518067367bfe296b7e2f56015b31112c0e3a01d0520", "42d0abca88834373dc00a2323cd1658576820b0c256c410e247aa12a5eb2851a"},
		// Re-recorded for the reduction order: BF16Act now runs Dot on the
		// assembly tiers, whose accumulators differ from DotBF16F32's.
		"avx512/amazon-bf16-act/hogwild1": {"35909502918329086207f80490fa85a2ffd2ec6dea72802333557be27ebf2da1", "f4a351cc91326adcf8f7d2f14f6c4cf5bdb86ac0d3ad330164185cefdcdd213f"},
		"avx512/amazon-bf16-act/shards4":  {"d94d8a2a86191dca43e72b6901940c79441142e543e278a6f1eb0e62a1bdc0fa", "ef7e54716e3149022e3b3449a0a67d36fbeb954f8d5d5e6e561691cb89da4bbb"},
		"avx2/amazon-bf16-act/hogwild1":   {"426e214cdf646fd9e1493eadb5f81cdbab6451405bf3815bb4efd0531d84ac7a", "263036b89dfe9bd3c547defb1f367f0fb7a07a410c5ed7acbc3effc7106f691c"},
		"avx2/amazon-bf16-act/shards4":    {"c50059a6a5f0c4f7ae916388c4fd235ecfd7789de75aaf299bcd3c50ebbe788a", "fed0eed0913b393520351f856cf8f055e9030c080fc25528f5db174ca539a52d"},
		// Re-recorded for the row-major walks (and, on the assembly tiers, Dot's
		// reduction order): BF16Act text8 stripes and shards now cross over. With
		// the per-sample walk forced, the Go tiers still produce the parent's.
		"avx512/text8-bf16-act/hogwild1": {"9e0bc7c8099b700c852c2ce299dda13e36dc02f822ba1475ccf4f9a9f67c7dc5", "d7d388d104b43d908f9640d3106f59e4d7793f847e6b7a400a78473a5967434a"},
		"avx512/text8-bf16-act/shards4":  {"fff3282703be632ce59e175727b2deb093b6f331146bce04f0b2beed3d0ca6a1", "e345abda768257b8f80057d3e5d4672570fc1181b621581989a7e8e3e090ad74"},
		"avx2/text8-bf16-act/hogwild1":   {"7dc2655871af19dcb947ca8e4864277db9733414e72947be8d081c27e96a494a", "7ed8d3fcfa00a6a6574b90e2180c6ab9187fa532aa5b7b2bd3cfb98bd7cb1b10"},
		"avx2/text8-bf16-act/shards4":    {"00a035a9538b8a03ddabbf7e82a8652c81e408e43104a07d4ac06dfbba2f5e33", "32e908abbeca2b0157632f9d4cd6f03d381d049b683fec88f8665b794772ad0a"},
		"vector/text8-bf16-act/hogwild1": {"be6559cd318371ad6a68921948bef6f0bfbf0c0fc29f3d53d436852789d1465f", "1915d93868d45ae034efb447420de374b3faf298d32289feefb8524c5fb29a43"},
		"vector/text8-bf16-act/shards4":  {"5efebd4bd843d96409ebff049e0e06d7a7394cba70d098753df4280ab65f7766", "42f2fd4553c9cd571540c92a0387e2740712b5e591856ebc71c4148d278071d8"},
		"scalar/text8-bf16-act/hogwild1": {"fefb9a8f8b5994b688dd2727f9e6d1108ee9fd2db589b1b3e0fd82187d8e69c9", "b1dc708bd612cb63fbb5dc27a9c73e6fb9ed7eac3c9573c84b0589ea871369d2"},
		"scalar/text8-bf16-act/shards4":  {"41b0c9671f217cb29bad55f985bb5bf869e048be45ccef200d917fe3f81b4c8d", "1da5eef3fd32c19a8fa660ca20ba2ffe89f8d5ee4afe1f48223fce7b76e1ee88"},
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
				if rm, ps := n.StripeWalks(); (rm > ps) != sh.rowMajor || !sh.rowMajor && rm > 0 {
					t.Errorf("%s: %d output walks were row-major, %d per sample", name, rm, ps)
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
// weights, and with them its scores, moved; the serving code did not. The
// text8/shards4 rows were re-recorded for the same order when the phase
// engine's shards took that walk.
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
		"avx512/text8/shards4/f32":   "b0dc367da5e162a30e56e57dcd766894db12d9e52ca2aa3b614458d8590b6003",
		"avx512/text8/shards4/int8":  "cf532477978096761b77d889776bc2a546c96609b7288291f1a0445e5ce4b2e9",
		"avx2/amazon/shards0/f32":    "1ba77c0f377a1d3837e514cd9a15e4294164875dd042341c94420a5f8cbde982",
		"avx2/amazon/shards0/int8":   "9b11364e8b2a98c4433e6643489fdc4085ddc84dd15d0e05e21abef9b8189135",
		"avx2/amazon/shards4/f32":    "d27e8dc1dbbe35e5b4e07b371b892b9270528d185bef968be1c73640dcc107e3",
		"avx2/amazon/shards4/int8":   "49fb0da8e268c50f5010c7ca845cf9d21812229447bf66d0183c392bda013717",
		"avx2/text8/shards0/f32":     "8f1caa4d5efe1f973e53e72e7a44be98c803a0ab17bc8c8915958083669f7722",
		"avx2/text8/shards0/int8":    "5c0de53d4a55f0df0df4e6bac5ce12be6abab6da9ffba3fa89a73ce0db4050c8",
		"avx2/text8/shards4/f32":     "8d89d1efe03edcc88ebfe712ea7763944d80e41e153fd4554872a9455f1f151a",
		"avx2/text8/shards4/int8":    "62063a536d3f96b6bd80e142c9038fa58d7a3413c719778cec21bd6acd63d9c9",
		"vector/amazon/shards0/f32":  "dd96350b5593d3a59629760a0f0835ba8e974d869efebc278dea1db9ed59dd7e",
		"vector/amazon/shards0/int8": "f685443700296815582e4d2b813e33f744bab8da8192e4f6ac72971731f18cbb",
		"vector/amazon/shards4/f32":  "a34955a410e8b6555562b60d19fdb36f2858982b2d5888f500474071f7a40994",
		"vector/amazon/shards4/int8": "3a02c0d76e8cfe2b139f846075766d6e5aded3be051510c455fc144f67c08eb3",
		"vector/text8/shards0/f32":   "ebc0d1ea939d0175f85447e503f262a4cc3aefd9c2c85df625450d5bd6d537b0",
		"vector/text8/shards0/int8":  "6d8da8082ce4bf289ab33305b6120f15a4ddd054c6d4b44cb77998a22d7f82d8",
		"vector/text8/shards4/f32":   "5bc5860762f83fd9683ad3fa5a70feb5a84fc311c824e90585be8577b894e6f3",
		"vector/text8/shards4/int8":  "8a28895f9654d59271cc25d378e60adee78ed4b7410da0de5f47170b456f7e07",
		"scalar/amazon/shards0/f32":  "e51f9d64b53d2eda6150a6a54362d646df19015575b372b040d452fd056f20cb",
		"scalar/amazon/shards0/int8": "e1526c0247769b44faca2203b20633dea25a460f3fb03701fee20eaf4b36c1ca",
		"scalar/amazon/shards4/f32":  "f8b6304d4028399084b980d217ae9262c7dd7706d3e9cd10e0b832c755a0b90f",
		"scalar/amazon/shards4/int8": "cc84faa8dda181e70eac0c96f32fbcffe062c4a06a9777f3e4e7b6a252258312",
		"scalar/text8/shards0/f32":   "5183f8805d82e18642f969a4f89033b041ad0ffed33f922523293a59639216b2",
		"scalar/text8/shards0/int8":  "ea005c35f3edfdc53f131f91dda743a707b1bbc8eed2979880eae798affd9799",
		"scalar/text8/shards4/f32":   "dd23fc8fcd674bb4640b6c599e1adf79123382c796ffda876eed9f59b56402d3",
		"scalar/text8/shards4/int8":  "fa7ceadf51ff715b9c6c450e8c0ada401ce52125c72717ab9fa77016ecf22344",
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
// trained weights moved; the config checksum and the encoders did not. The
// shards1 and shards4 rows, but for their checksums, were re-recorded when
// the phase engine's shards took that walk: their 40-output shards cross
// over. Every
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
			"base":          "c107fb53530db6e92dd2ce4782d8947bb690d67ca43b90db1bc8f022b912d6e9",
			"delta":         "9e24d88f5b2050958e3896c0001fe05db0ae14a890ec3daf27238d02e7e728ad",
			"delta+rebuild": "744c18a9f6990b955b441c78628d32df7742b89b3411ca8dc0a9925ed66c949c",
			"checksum":      "3840cebb",
			"checkpoint":    "12f7a8b56b842e2f4553fd366969b2329095bb4e3a0f8c1e32e3c78356a2a21c",
		},
		"shards4": {
			"base":          "c2fb3f34de07abf8c01db74f527982dec02c2565469ddbc66d6d1ae3ed271f95",
			"delta":         "71f7183b1e9c724733d6198e4674a488d59f71e54cf31b53bdd898a9359c1e8a",
			"delta+rebuild": "35272bfc32b3cb601d5fb78f2a50b6e3600e1a6ac70de228430a98b521b626ca",
			"checksum":      "506131f1",
			"checkpoint":    "cd87b74c32fb33ff077ed09e7b17121535416eba499e8b64c842cd0394acf43d",
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
