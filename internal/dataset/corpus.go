package dataset

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/slide-cpu/slide/internal/sparse"
)

// Real-corpus word2vec pipeline: tokenize whitespace-separated text (the
// format of Mahoney's text8 dump), build a frequency-ranked vocabulary,
// and extract skip-gram samples — so the paper's actual Text8 experiment
// runs unchanged when the real file is available.

// CorpusConfig parameterizes BuildCorpus.
type CorpusConfig struct {
	Name string
	// MaxVocab keeps the most frequent words (0 = unlimited). The paper's
	// preprocessed Text8 uses 253,855 words.
	MaxVocab int
	// MinCount drops words rarer than this (word2vec convention; 0 = keep
	// all).
	MinCount int
	// Window is the skip-gram half-width (paper: 2).
	Window int
	// MaxTokens truncates the token stream (0 = read everything).
	MaxTokens int
}

// Vocabulary maps words to dense ids ordered by descending frequency
// (id 0 = most frequent), the layout word2vec tooling expects.
type Vocabulary struct {
	Words  []string
	Counts []int64
	index  map[string]int32
}

// Size returns the number of words.
func (v *Vocabulary) Size() int { return len(v.Words) }

// ID returns the id of a word and whether it is in the vocabulary.
func (v *Vocabulary) ID(word string) (int32, bool) {
	id, ok := v.index[word]
	return id, ok
}

// Word returns the word with the given id.
func (v *Vocabulary) Word(id int32) string { return v.Words[id] }

// BuildCorpus reads whitespace-separated text, builds the vocabulary, and
// extracts skip-gram samples (one-hot input token, multi-hot window
// labels). Out-of-vocabulary tokens are dropped from the stream before
// windowing, the standard text8 preprocessing.
func BuildCorpus(r io.Reader, cfg CorpusConfig) (*Dataset, *Vocabulary, error) {
	if cfg.Window <= 0 {
		return nil, nil, fmt.Errorf("dataset: corpus Window must be positive, got %d", cfg.Window)
	}
	if cfg.MaxVocab < 0 || cfg.MinCount < 0 || cfg.MaxTokens < 0 {
		return nil, nil, fmt.Errorf("dataset: corpus config has negative limits: %+v", cfg)
	}

	// Pass 1 over the stream (buffered in memory as ids-by-first-seen):
	// count words.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sc.Split(bufio.ScanWords)
	counts := map[string]int64{}
	var stream []string
	for sc.Scan() {
		w := sc.Text()
		counts[w]++
		stream = append(stream, w)
		if cfg.MaxTokens > 0 && len(stream) >= cfg.MaxTokens {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("dataset: reading corpus: %w", err)
	}
	if len(stream) == 0 {
		return nil, nil, fmt.Errorf("dataset: empty corpus")
	}

	// Frequency-ranked vocabulary with MinCount/MaxVocab pruning. Ties
	// break lexicographically so the vocabulary is deterministic.
	type wc struct {
		w string
		c int64
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		if cfg.MinCount > 0 && c < int64(cfg.MinCount) {
			continue
		}
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if cfg.MaxVocab > 0 && len(all) > cfg.MaxVocab {
		all = all[:cfg.MaxVocab]
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("dataset: vocabulary empty after pruning (MinCount=%d)", cfg.MinCount)
	}
	vocab := &Vocabulary{
		Words:  make([]string, len(all)),
		Counts: make([]int64, len(all)),
		index:  make(map[string]int32, len(all)),
	}
	for i, e := range all {
		vocab.Words[i] = e.w
		vocab.Counts[i] = e.c
		vocab.index[e.w] = int32(i)
	}

	// Pass 2: map the stream to ids, dropping OOV tokens.
	ids := make([]int32, 0, len(stream))
	for _, w := range stream {
		if id, ok := vocab.index[w]; ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("dataset: no in-vocabulary tokens")
	}

	// Skip-gram extraction.
	var b sparse.Builder
	labels := make([]int32, 0, 2*cfg.Window)
	for i := range ids {
		labels = labels[:0]
		for d := -cfg.Window; d <= cfg.Window; d++ {
			j := i + d
			if d == 0 || j < 0 || j >= len(ids) {
				continue
			}
			if !slices.Contains(labels, ids[j]) {
				labels = append(labels, ids[j])
			}
		}
		if len(labels) == 0 {
			continue
		}
		slices.Sort(labels)
		b.Add([]int32{ids[i]}, []float32{1}, labels)
	}
	csr, err := b.CSR()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: %w", err)
	}
	name := cfg.Name
	if name == "" {
		name = "corpus"
	}
	return New(name, vocab.Size(), vocab.Size(), csr), vocab, nil
}
