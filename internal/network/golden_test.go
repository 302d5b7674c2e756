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
// the code that produced them moved. The text8deep row is a text8-like model
// with a dense middle layer, HOGWILD on one worker; the BF16 rows pin both
// BF16 precisions on both engines. Every row was last re-recorded when the
// per-sample output walk was deleted: every stripe and shard now walks the
// output layer row-major, summing each sample's input gradient in row-walk
// order (layer.AccumulateStripe), which moved the bits of every row; the
// parent commit, with every stripe and shard forced onto the row-major walk,
// produced these same literals. TestStripeWalksBitIdenticalToPerSample
// checks the walk against the per-sample definition and
// TestOutputWalksTrainAlike the training it yields. Every kernel tier has its
// own literals: tiers differ from each other in dot-product reduction order,
// but no tier may differ from its own past.
func TestTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("literals were recorded on amd64 (other compilers fuse a*b+c in the portable tiers)")
	}
	type shape struct {
		cfg      Config
		protoNNZ int
		engines  []string
	}
	all := []string{"hogwild1", "shards1", "shards4"}
	shapes := map[string]shape{
		"amazon": {Config{InputDim: 1500, HiddenDim: 128, OutputDim: 2000,
			Hash: DWTA, K: 4, L: 10, MinActive: 48, LR: 0.01, RebuildEvery: 10, Seed: 101}, 12, all},
		"text8": {Config{InputDim: 600, HiddenDim: 200, OutputDim: 600, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 64, LR: 0.01, RebuildEvery: 10, Seed: 102}, 1, all},
		"text8deep": {Config{InputDim: 600, HiddenDim: 200, HiddenLayers: []int{40}, OutputDim: 600, HiddenActivation: layer.Linear,
			Hash: SimHash, K: 6, L: 8, MinActive: 96, LR: 0.01, RebuildEvery: 10, Seed: 103}, 1, []string{"hogwild1"}},
	}
	// The BF16 precisions on both regimes and both engines. Both walk like
	// FP32: BF16Act's rows are float32, and BF16Both's bfloat16 rows are
	// walked widened.
	for _, prec := range []layer.Precision{layer.BF16Act, layer.BF16Both} {
		for _, sn := range []string{"amazon", "text8"} {
			sh := shapes[sn]
			sh.cfg.Precision = prec
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
		// FP32. Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/amazon/hogwild1": {"837cbe3c811e884221ce3f49dd7a898fe450da29fa37baca6a14258a95c55439", "946243ef6d4b6f36a99f37bfdd9e7bf3638ea769314a4588b33686e0162a21fe"},
		"avx512/amazon/shards1":  {"9dfe6064ebe3e9f9ed478d21e0bf271c19acb57fc790a4dd981226cae5b7a09e", "391108ff0bc420aa95f7df116d64a2c4e6b230786763b288add65389fe4e20b3"},
		"avx512/amazon/shards4":  {"c0bd2d28648343977f01a75a9b582af3d815cc779e0c4fb487b8638174d283f7", "214f7540d320fea0997f8371acb1a141f339073b53fe4c4b6b02118e8ca33092"},
		"avx512/text8/hogwild1":  {"ffef4133f5debf8c909f46f3cf007dae4e8bf3124189d1bcc1273bfb53ccf457", "7d75987ae374a020c3d2386f5931c001641ae23448d48695ddc488af8137e505"},
		"avx2/amazon/hogwild1":   {"c5cccdfb622e55926485b91caab97032c247802a822efcb3f4d0d1c2ed13cf8e", "0f71b81452d7290e4b64f101e888c8778b1e10c727df8b9b09e3a120a308d61e"},
		"avx2/amazon/shards1":    {"9b322f44fbcad5de5662cd7abe91db72b44605bf864ee4d17e27284eb31cf610", "931c79cad53ffb43b637f1b5b992cd078528d2e4268e9252b9a1af7ff2b2d6e2"},
		"avx2/amazon/shards4":    {"ecdd8caa8eadfaaf794c2244348f605d684918a45fc74eafbe01ae4a55e8cab0", "b49fac2626789bd5cb4fcc06cb5cb7a25d83e7927c2723777732f3328d21502f"},
		"avx2/text8/hogwild1":    {"ff01c7557f5409d07b5d7a0a0ee21aa117601ee8b1b7b950c444395d06d469cf", "3c002bafdb489780f8328909abb320eab24d548734a0cfd68fcf2ee8904a03e9"},
		"vector/amazon/hogwild1": {"9d37d292465f33df272139c6ed36afd963cf6ec4e136689208163d04e9364d92", "62a5c64fb748f49ac41a7aed3dbbae1d6e24031af9b6df5e29a8eb427fcdd1d9"},
		"vector/amazon/shards1":  {"fc38279c2c3da0c24af25be58a602c7dd8b2eda55ad28226780bc92669617e86", "1d94c226232ba1b608429c3f771cbe1b18cac1cd985ba442d779a8c782fee275"},
		"vector/amazon/shards4":  {"15c243efe51dca5c94058b8a04354cd4ed46e7123189849fa40dc9cf40c49dd8", "03f15383f829da49b5f674d8d4d7c0e1d830efbe95641b7a4945d7a1e3dd37ba"},
		"vector/text8/hogwild1":  {"250cc3fa5825cfd2f9879e1138c5aa93c2faa41d33eca0fb07f548b5c7dede73", "23a1ddcc27c720c3226b2ee300b53e6e9f0a84fae99ed65db83674f502eabd33"},
		"scalar/amazon/hogwild1": {"e977796c13d3d769c5530f46a4bf770f15b5c32e544c893b0679b4366b490325", "73a98c53e495398ad6131e54b1fa85be359f438e822fa7c1e0f3fb7fe225132a"},
		"scalar/amazon/shards1":  {"1887a0599a311e75fac887898071cf9860c82e8dd458f8f068f543b5d2b720df", "224698ca0c28cbb18966705ff2258a9543833787c9010639fac32a22be971099"},
		"scalar/amazon/shards4":  {"52ee7ed7b23a7f89b562a974fee99d93979fd6bc1788236e0858a75d6673f0d3", "d6370b0d60b8b384e7505be23d91c598e36bce8c35ede987b24620ec97fd0838"},
		"scalar/text8/hogwild1":  {"77ba07942a0d93a44d0aa7fcdb0af4d0e66b203126bba1a7b7e70a1241743016", "dcc2d5b89c07d955da1f6e92a1a5d22b3ec5b9957ad853620beae15b08cba7a6"},
		// FP32 text8deep. Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/text8deep/hogwild1": {"997465c81367d9fcbaf54f4b8b7583855a9fc59a6497f84d06f7a1e60d2ab8eb", "a93b3114f20e79fbbc6ed377397fc7841c1fc0ac6173c1daa3f59554383adef1"},
		"avx2/text8deep/hogwild1":   {"4312f3ec4e6a0eb98725f404171cbd7c450c0cc474650701511c0f3d433e090d", "f22636b639e22e0406d642b690799837a480d3c6f1893f79877f3069231aff25"},
		"vector/text8deep/hogwild1": {"083fe06ac4b513d8fb38488f72c447dca87401a311dc8ee859422f4ee9fccc62", "7847a41214c76f584c19a89c11b6dc503cf8dae44d82d843cff61ce78fe8a022"},
		"scalar/text8deep/hogwild1": {"1957ac19d3412a15b4fc1bd8d83911a254c19312e6b10bfd483d556f749730e6", "5511a15fcfe90b887c1c360ea644a163bc3522cd4eb5933738f43f7c33e72750"},
		// FP32 text8 shards. Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/text8/shards1": {"a20b4c95e1b456d5f4de1d18dac1109486defe8610ed89c95f89d9af49803dc0", "d3b2ce8fd681cc96b9714885b9777656b85c4db5f471c61d1a37857acf9e5d3b"},
		"avx512/text8/shards4": {"14c7b3a7b0f55ed62e639fee3cfacf73cea0a830d08b97218c2f4b99a73b573d", "f657c9be26ce3a51340b3c2e6a8a7377db03b5d3ae8414f8fab74d14cdc99f71"},
		"avx2/text8/shards1":   {"608d9e4a13cc50f16ff3c41234ae796ff0c43ae3f5cae460a0bf6d1af073e2a6", "33ff64240a583dc2c0ac7a4e2c2d5751624a85349fcf4d94421eca4837438b6a"},
		"avx2/text8/shards4":   {"2dc1f0d628b950366bbf23893acd0e4d4a0e9d1806dd1498fb13ba4978de1b97", "fa7a3f382a67647c082e9867f8e194e75e3c857ae739c4a17e09150f094f70ac"},
		"vector/text8/shards1": {"f898276f01125efe2f7cbc37464ba800e3e059220034a4e1ddd609565896c0aa", "ac74b7e65bce1adceaa556c58191db18f53466518baaa3bf73e041bdf0807485"},
		"vector/text8/shards4": {"b01f35cc943042f8431df1efea0d5f5b5659126ee2967af54fd7da093b80d5ce", "86fcd415a576cdd233801a2a45b1189a123435b5b577963e38940c4a7ae28e8e"},
		"scalar/text8/shards1": {"8d870316256dac66fd621704d0deca64baa3df6d912c607c6d1efb67904b1f59", "95b3382ad72699f94176b494d3a9b18db3941cb305f3464006d425aa0dd2e974"},
		"scalar/text8/shards4": {"2b6989a7c2a41e8fcf6b4fbbc45ad5c8b98f54c6a5864e919c7f350642883132", "76fb11f8f775a95323c663ab65f405417831e3f05321fae2ce8a560f8f4677c4"},
		// BF16Act amazon on the Go tiers, BF16Both amazon on the scalar one.
		// Re-recorded: per-sample stripes/shards now walk row-major.
		"vector/amazon-bf16-act/hogwild1":  {"03caa41dc6c772e6ba5de47c3dec4d538a3570c42eedae5108b43a577219e181", "77816a7ba40658e097ecb5961da946a946175a039a510d6cba83be9e6296c6d0"},
		"vector/amazon-bf16-act/shards4":   {"e3bf6f00d5547386d8fd3db4be3c633238f76e0c99f302f26fbd33a6677dae87", "2ef99709a680fbb6ce21e8176671dbd824ff3afd6712a0f5b58c3838c1a224ec"},
		"scalar/amazon-bf16-act/hogwild1":  {"f6aeff89be4b2052d414ca72161c79418a11e612feaa3a19ca1b90553f5bb4e6", "e57456c22219ddb6d897b92b18d0b95c784430f764419ecb0edbcc5bb8c297d4"},
		"scalar/amazon-bf16-act/shards4":   {"59c74f09b34db410ea28c19a4749382b8b3974fbe9b5fd3604953429d5954598", "e73ea1b985b4cea64fd820a0c193e34f488ea0cf7dae9b18b05ee16a52955b97"},
		"scalar/amazon-bf16-both/hogwild1": {"694af1d393e9b03fe4ff713c26ba725290e6a8ef0e6907ce7ca851f6a3386d85", "198f0da3efb95a1855bb1d6b3930385054cc8181c90521aea9a9b99478178d0d"},
		"scalar/amazon-bf16-both/shards4":  {"1635c66f0fcd62850c0942271c4c84eec5334f6b588374fc09d25f423420d4e7", "332041743cecc4b0c31630178174ac4370b408307dbdf5ab6ba04ba46b0353d8"},
		// BF16Both amazon off the scalar tier.
		// Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/amazon-bf16-both/hogwild1": {"622c10c90943401331c3715c106609a84975de019424717942f5dee11186f96c", "f95b081e100dd4240643e56db4878e1c157b84650582977731930fa5f0731727"},
		"avx512/amazon-bf16-both/shards4":  {"5b3fb4e3bb63494032087dd6659571538c727749cc51b3614b6278b3e2ada634", "c310f4c89318f87b19ba7c09b3c90f5d7b2bf4fe43081185c87447bbd70ec9ec"},
		"avx2/amazon-bf16-both/hogwild1":   {"592a05507d0fa2f8e9b019a78ce9a4e263b020f5c00ff500ab66d911d985715f", "23821ba769cf4f22c1709da20168948b4c48eee1ccdbc401c95552222e1df618"},
		"avx2/amazon-bf16-both/shards4":    {"560f35a2ce70f755fa10122ebb7f9c3357aea6d457b220349fbb595292a0f5f0", "d8ae2ca975fb2ad35eb262a388d509bd2666f04acfbf712980925e131d643dd0"},
		"vector/amazon-bf16-both/hogwild1": {"0ff87c0857d5d9036a940a79523432e1022076a8cdc3c63171a0341681219753", "ba3d39ca0167165490d672a7a2a3c4f83998332d1ea0e576ce153e2558fccc28"},
		"vector/amazon-bf16-both/shards4":  {"40ef5a63094280ef585ea81706b481d3db7b36b4dff1adc13d2b67eed656a6ab", "2782d9e8f8d094878d4f2d570b79909cfaeef6e7d5cdc9cec2929fc3e3a516f6"},
		// BF16Both text8. Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/text8-bf16-both/hogwild1": {"48fefc39c07f7477ab6f97b68990f19b03175ead4f8c520272e09702adee7522", "c8b6c6a36bf8ef44f0605b6284fa4eecbec82edd09dbd38ddabe1263a5ee9262"},
		"avx512/text8-bf16-both/shards4":  {"abb006f17a494c08f6cb4f0306df2d39d267007de5ba4c9b1158e77b1b001f55", "f5e8af4c353935743706a98fd2c5b2843addbfa0ba4f37058d91d9ad3bb8e449"},
		"avx2/text8-bf16-both/hogwild1":   {"230789f89038eabee9c46462808c75c0309de902ddfc9d41d609b69b306a1c3e", "a27820b6ee1e65c37685a6486c296852deb7d8ca32c8298d8805d40209e1c68a"},
		"avx2/text8-bf16-both/shards4":    {"dcfde62364887879ff2c5062509741f549514ebd202a5468e43d55feca621497", "bc538b04715a43256bc62c785c4c97475ba8e57096ae56e4ef011914886ecdf8"},
		"vector/text8-bf16-both/hogwild1": {"a1fb2c0fda6dd0b9a10a5b264105b6da714cdd309eac6cb80d43fa88111645b4", "a0173a3a0c6fd3516c2c5ddb741674d87f9da698ee8c68c7d3c417c5b66d03a7"},
		"vector/text8-bf16-both/shards4":  {"385167f5a9b9dc947a51e472414c7e33fbea755fbb56c402cabd7042e703aae9", "529144411d1777aab243880dff95f2d2c8c7550b69fd30e1f1b776f4d68c1ba8"},
		"scalar/text8-bf16-both/hogwild1": {"ea9e7c37fbca04f3ca3d161819abb1e14524f0159ca4513d012a590278fa3165", "3634d9f78b840ff3a9289fb1f720786ef50a986ae054e52973e54c1b4b4d679d"},
		"scalar/text8-bf16-both/shards4":  {"143ff07bb3c69b2fbf0d05448bef785d1a208f100d2eeaae747ecafef294a8c4", "95640adc545fe7ea6d672ea2b57daa2b7c75d0fa371635d331673f06b701ab63"},
		// BF16Act amazon on the assembly tiers.
		// Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/amazon-bf16-act/hogwild1": {"891125a078498948bd6d04c748f4f0de84457deed5991bd6fc24dae4381ab053", "7c109b6179daee38ccca40cd74aaa54c742608b622c60a5656d9363d54aafee2"},
		"avx512/amazon-bf16-act/shards4":  {"b8cf5a08e1111e56c9b6661c4f37202541afd78daf2098ae8bf7d269e2216686", "afcafbbb639138b4a2d970ccb7e60956533f536e74b1ea5b4651d389cc7bbf2b"},
		"avx2/amazon-bf16-act/hogwild1":   {"4df4c550914247eaee898ac764562f5cc2bdd00e873ba53744ce0648c0d43c11", "4ce4e0f90bb73096d0d56ad3c1d1dc65a99443c114fe2892183c58a482f30fbb"},
		"avx2/amazon-bf16-act/shards4":    {"94feebca285ef69df6c64552fc7e12ec4cb6f55738ecd0039890010aa773ecb5", "5dd746e0b0a905b13673f336bf5093af4910c8c4d11c8df4118134378f5abbd0"},
		// BF16Act text8. Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/text8-bf16-act/hogwild1": {"9078bf97364ef8946c362731c64c8671f4d29f218644328bd7848f40cb73ad8f", "3564f7096a978070bca083d9d1afb6a03b352be71f0d74a988ce7a44b5dfa6d8"},
		"avx512/text8-bf16-act/shards4":  {"2995a40681312da46ae29dd0cb4b8153421359eeac91ad7004d5cc3162793482", "9a4c8921c941e1d395ae22d56a1243422cb6403fcc4ab2c850b6c3a7457d0633"},
		"avx2/text8-bf16-act/hogwild1":   {"618e0ae9604532888f179c8cf930af5add6ef1628e55eca0fd18ee2ab1af0f9d", "93dc99a226d0fa7084421acd617a2ed708a8408c555d138b9162f06abc74339c"},
		"avx2/text8-bf16-act/shards4":    {"9725eba469e37e178da9fd33e1fe3eae6ff7456a071d05017bc66a974242d5ef", "893787bd34f23af9956a612eba2bdc529d621f48a3c32f4151eb154342c363fb"},
		"vector/text8-bf16-act/hogwild1": {"55db765ce7107749983e4315dacb1af917f9e359d8fcc352fd7e74b12a75cdb5", "ae6d70e935e8c0069a51c41eca2b4ab51ee766a024dd9288527d936999b914cf"},
		"vector/text8-bf16-act/shards4":  {"5a368b4b9426ec47b1375559f72c88fe23239cfd99238de11d51b56b412c1f80", "fcf0db64b1f2b9574a1dc65faba2ac7c0d2a60b39e8441362e54443f47f5b9b9"},
		"scalar/text8-bf16-act/hogwild1": {"f27aba58a32e21afe1c191f2fd44b114ffb5ec78445c73435c1fdda188677383", "f08c743ee4fd7f18392df1d616591f000db86e2cc6a4805f8c56530699e9e780"},
		"scalar/text8-bf16-act/shards4":  {"48b1a5994dc07c3b199c4aa36666e26b86f1316a6bdf4c64474a02e5a9a27df7", "ff1ac8faa18d6534269f002f9c4cdc463ccc6c5769545727d1ef29ba81b38f28"},
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
// walk's code, which "batched equals single" no longer is. Every row was
// re-recorded when the per-sample output walk was deleted: the models train
// through row-major stripes and shards only, so their weights, and with them
// their scores, moved; the serving code did not.
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
		// Re-recorded: per-sample stripes/shards now walk row-major.
		"avx512/amazon/shards0/f32":  "c3858533f995ac26095573a25e14b910b85faa738dde81c68bb409dffdbde334",
		"avx512/amazon/shards0/int8": "2a0416800383816b1c3de7aa0386285d47ac3f6dad4d8eca2f495b0fd725b99e",
		"avx512/amazon/shards4/f32":  "ddb1d53d51a5120ad58a64aca256d6782c48452cb1fd3ccd39f08223f4bc3ed3",
		"avx512/amazon/shards4/int8": "ba99e8a355ab308a8e6412794051cf663a780b261db29b21a15b34d09bf2c07f",
		"avx512/text8/shards0/f32":   "4421c529aa519fd09f2535a8a97daaae6282b6fb49fd29dc29cc45bf1abee2d8",
		"avx512/text8/shards0/int8":  "dc932a3b8a3977d6cba48eb91e45e258b49b14ca046fa57889e350812c918f58",
		"avx512/text8/shards4/f32":   "89a66ba3bee3958241485f2663464dd8be79e4f142f90cbca145a0481266fbdb",
		"avx512/text8/shards4/int8":  "a4308409fee7961e839a7605596d3b9ec6afcbc97c242d5f9cc4a3fb7c348229",
		"avx2/amazon/shards0/f32":    "798a3b6b3eba00310dc03237ff5fdc9bc45d82ce2847f158cdbf1b506973dc69",
		"avx2/amazon/shards0/int8":   "ff8efefa823cdf18518f091d1c432e732356ecab7b725032812be386499858df",
		"avx2/amazon/shards4/f32":    "2e09a87c6d0eb78af76f3e257ed20cf1c7b9daf5be9e5c81a8be85b2718e0a3c",
		"avx2/amazon/shards4/int8":   "9b148d732a4c1c2a71d9801d2224dc9f045e14c27db530099d3280f4a312fc4b",
		"avx2/text8/shards0/f32":     "ccd522dda3682bd4ce44265dcde8fdb7f75688f989802e933a2832cea45ef624",
		"avx2/text8/shards0/int8":    "643b98c2bdf448ba54fe7d4ea73e49301f47ad7057949476d2a55fc055dccc3f",
		"avx2/text8/shards4/f32":     "7a9740577d7326dc7fb545231d97de1d2565f02da123d864053de23c85f1b9e6",
		"avx2/text8/shards4/int8":    "cfedd2ab2701ff8a605aa44043a7fea7dd5045207d95e981f703a9cecb7afe43",
		"vector/amazon/shards0/f32":  "d746fde612dc489948be7a3cc01e1d84e5cee839c2bd4dc3d70e05a3a68b8c73",
		"vector/amazon/shards0/int8": "11f84af27ed12074cc47a5060c56ea7c85bb68e20283d8c757de9b11047ac159",
		"vector/amazon/shards4/f32":  "a18ddad91fd7aa86d1a33003428aa4fdac4871395a69f402ed0a94dbe890eae6",
		"vector/amazon/shards4/int8": "be10cda5bd32a6435a868e0d9939a78c2bc9ec5798d3ee1f615af284eb9f2e32",
		"vector/text8/shards0/f32":   "57898b599faca74b6d5cb43ffe2bab02289a802000b7665953584f4cf135c18a",
		"vector/text8/shards0/int8":  "491157a26a35ffce3ce9bb9b84d59cfba3581440522253e85e1761afe551dc7c",
		"vector/text8/shards4/f32":   "8a6543d2914a673efb2ad164c4bc1c439966db9a3e26e25448127460de031351",
		"vector/text8/shards4/int8":  "69ce613e18a62323e01eb873d6a9f98ba82855a081a8595b2696d2020cf9f795",
		"scalar/amazon/shards0/f32":  "22e8fed52a8d407d4114d68fa788092c2343db3b3262b3082bcd14f7d760c628",
		"scalar/amazon/shards0/int8": "e8544829b6e6f0b60ae12eb96f66bf3ba2c63a1a9cf2258a95d39fc9e1f61f8c",
		"scalar/amazon/shards4/f32":  "6e8200f5ce4fcf6a0ab9d5a3499c0bbd1083a8093566515849add7658d664b78",
		"scalar/amazon/shards4/int8": "70b654ab71009c0621d40bf9767c5081f1f3398ca49c46d9d8fc9762e74ae259",
		"scalar/text8/shards0/f32":   "90964335fb39089886319d82aa33e78e4b8e542ccda051e32a9f9d185c5b719b",
		"scalar/text8/shards0/int8":  "5287c1baa6695208eee9cd01de1c20a0990ebdbb4c2ec1095fc7f460f7f9cf7e",
		"scalar/text8/shards4/f32":   "288d379ea35ec1da3bca68e2994587de70559ceaee418d1907478231de344461",
		"scalar/text8/shards4/int8":  "f759464d30fb5c0bdb41a4ffefba7fb18a901d6b2b43890ed5eecb7e1d16494d",
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
// with the scalar tier, so they hold under every SLIDE_KERNEL_MODE. Every
// row but its checksum was re-recorded when the per-sample output walk was
// deleted: the models train through row-major stripes and shards only, so
// their trained weights moved; the config checksums and the encoders did
// not. Every pinned stream is also fed back through its decoder and must come
// out again byte for byte.
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
	// Re-recorded, but for the checksums: per-sample stripes/shards now walk
	// row-major.
	want := map[string]map[string]string{
		"shards0": {
			"base":          "5774bc72c213f1501fc6e12782490bf880c8bfcc09ef068e5b1c9119a1f03642",
			"delta":         "8a84fd9c7bcf280adebdc0aca3ee7e9784ec9344aab6ef94d35043eaa218d7ac",
			"delta+rebuild": "ae4259b9253da202b77e1daef095215515966180b71dbf829c072e2a8394ff44",
			"checksum":      "cf060de0",
			"checkpoint":    "746690c46772a3d7b9eaefdf8037d05fc6a65e674aca4ed44421a908d5f12082",
		},
		"shards1": {
			"base":          "d758ac122fb04edfe912ed2f66787a81541e5ecb4766a50a3aef31ccf886500f",
			"delta":         "94d7f1fb75f1abe0f73eb7e5f74b439035fb181aec2f6c9f843165f194ab4d09",
			"delta+rebuild": "2ed93d86e012b8bf658a7a1618b640be3ac4b9d4f31d77e4c81abb1232751189",
			"checksum":      "3840cebb",
			"checkpoint":    "9596b08e0b6746f13def5f88ec9c81246c313a19ba7903128590367c96988121",
		},
		"shards4": {
			"base":          "aaaf871c071257331e8f77444648050f6c311f360bbb883d7dd5f7b6abc2a99d",
			"delta":         "64c41d8c511e0ba5710ea9b96e91429d59a9453204f69db7f22e7270c1f7a74d",
			"delta+rebuild": "40f278c8b998214e189a803eb0eb6eb1b68bf30abc089efbf4be6654a0ae1140",
			"checksum":      "506131f1",
			"checkpoint":    "0028177eb95c78e5e8bf9d181ac0932451ce204a7de414e7831b0b73d93cad4b",
		},
		"uniform": {
			"base":          "22f7b3798cefa508415d08c26e76d4f5b24a03e1a4bde461715b125ad723e441",
			"delta":         "c33fb4da6367eb0ed90649613e054487c31e61108885e1bcecf173dd9c9c28df",
			"delta+rebuild": "c03a0fd500cf52c89cf65dedca02f9283e00bade88b6583e8a44d5eb7abf60c2",
			"checksum":      "12c618cb",
			"checkpoint":    "d535a5a3a3cd7b4afe812f789e95d036bfea3267506ec4b1bffe7f6469fec649",
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
