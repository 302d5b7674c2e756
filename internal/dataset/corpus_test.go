package dataset

import (
	"strings"
	"testing"
)

// buildCorpusString is BuildCorpus over an in-memory string.
func buildCorpusString(text string, cfg CorpusConfig) (*Dataset, *Vocabulary, error) {
	return BuildCorpus(strings.NewReader(text), cfg)
}

const tinyCorpus = "the cat sat on the mat the cat ran to the dog the dog ran to the mat"

func TestBuildCorpusVocabulary(t *testing.T) {
	ds, vocab, err := buildCorpusString(tinyCorpus, CorpusConfig{Name: "tiny", Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "the" appears 6 times and must be id 0.
	if vocab.Word(0) != "the" {
		t.Errorf("most frequent word = %q, want \"the\"", vocab.Word(0))
	}
	if id, ok := vocab.ID("the"); !ok || id != 0 {
		t.Errorf("ID(the) = %d, %v", id, ok)
	}
	if _, ok := vocab.ID("zebra"); ok {
		t.Error("OOV word found in vocabulary")
	}
	if vocab.Size() != 8 { // the cat sat on mat ran to dog
		t.Errorf("vocab size = %d, want 8", vocab.Size())
	}
	// Counts are ranked descending.
	for i := 1; i < vocab.Size(); i++ {
		if vocab.Counts[i] > vocab.Counts[i-1] {
			t.Fatalf("counts not descending at %d", i)
		}
	}
	if ds.Features != vocab.Size() || ds.Labels != vocab.Size() {
		t.Errorf("dataset dims %d/%d", ds.Features, ds.Labels)
	}
	// 18 tokens, every one has at least one neighbour -> 18 samples.
	if ds.Len() != 18 {
		t.Errorf("samples = %d, want 18", ds.Len())
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// First sample: token "the" with context {cat, sat}.
	s0 := ds.Sample(0)
	if s0.NNZ() != 1 || s0.Values[0] != 1 {
		t.Errorf("sample 0 not one-hot: %v", s0)
	}
	labels := ds.LabelsOf(0)
	catID, _ := vocab.ID("cat")
	satID, _ := vocab.ID("sat")
	want := map[int32]bool{catID: true, satID: true}
	if len(labels) != 2 || !want[labels[0]] || !want[labels[1]] {
		t.Errorf("sample 0 labels = %v, want {cat, sat} ids", labels)
	}
}

func TestBuildCorpusMinCount(t *testing.T) {
	ds, vocab, err := buildCorpusString(tinyCorpus, CorpusConfig{Window: 1, MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Words with count >= 2: the(6) cat(2) ran(2) to(2) dog(2) mat(2); sat
	// and on are dropped.
	if vocab.Size() != 6 {
		t.Errorf("vocab size = %d, want 6", vocab.Size())
	}
	if _, ok := vocab.ID("sat"); ok {
		t.Error("rare word survived MinCount")
	}
	// OOV tokens are removed from the stream BEFORE windowing, so "the"
	// and "mat" in "the mat" become adjacent even with "sat on" dropped.
	if ds.Len() == 0 {
		t.Fatal("no samples")
	}
}

func TestBuildCorpusMaxVocabAndTokens(t *testing.T) {
	_, vocab, err := buildCorpusString(tinyCorpus, CorpusConfig{Window: 1, MaxVocab: 3})
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Size() != 3 {
		t.Errorf("vocab size = %d, want 3", vocab.Size())
	}
	ds, _, err := buildCorpusString(tinyCorpus, CorpusConfig{Window: 1, MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() > 5 {
		t.Errorf("samples = %d from 5 tokens", ds.Len())
	}
}

func TestBuildCorpusErrors(t *testing.T) {
	if _, _, err := buildCorpusString("a b c", CorpusConfig{Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
	if _, _, err := buildCorpusString("", CorpusConfig{Window: 2}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, _, err := buildCorpusString("a a b", CorpusConfig{Window: 1, MinCount: 10}); err == nil {
		t.Error("fully pruned vocabulary accepted")
	}
	if _, _, err := buildCorpusString("a b", CorpusConfig{Window: 1, MaxVocab: -1}); err == nil {
		t.Error("negative MaxVocab accepted")
	}
}

func TestBuildCorpusDeterministicTieBreak(t *testing.T) {
	// Equal-frequency words must rank lexicographically for reproducible
	// vocabularies.
	_, v1, err := buildCorpusString("b a d c", CorpusConfig{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(v1.Words, " ") != "a b c d" {
		t.Errorf("tie-break order: %v", v1.Words)
	}
}
