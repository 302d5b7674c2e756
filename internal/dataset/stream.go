package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"

	"github.com/slide-cpu/slide/internal/sparse"
)

// FileSource streams an XMC/SVMlight-format file as training batches without
// ever holding more than a bounded working set in memory — the out-of-core
// path for datasets larger than RAM. Each Reset reopens the file and makes
// one sequential pass; an optional shuffle window of W samples decorrelates
// the stream (each emitted sample is drawn uniformly from the next W
// not-yet-emitted samples, the classic streaming-shuffle buffer).
//
// Memory bound: the parser scratch plus at most (window + batchSize) parsed
// samples are resident at any moment, independent of file size.
type FileSource struct {
	path   string
	name   string
	size   int
	window int

	header xmcHeader

	f       *os.File
	sc      *bufio.Scanner
	lineNo  int
	kv      map[int32]float32
	rng     *rand.Rand
	emitted int // samples yielded this pass, checked against the header at EOF

	// buf is the shuffle window: parsed samples awaiting emission.
	buf []streamSample
	b   sparse.Builder
	eof bool
}

type streamSample struct {
	idx    []int32
	val    []float32
	labels []int32
}

// NewFileSource opens an XMC-format file for streaming. The header is read
// (and the file closed again) to learn the dimensions; window <= 1 means
// sequential order. Reset must be called before the first Next.
func NewFileSource(path string, batchSize, window int) (*FileSource, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("dataset: batch size %d must be positive", batchSize)
	}
	if window < 0 {
		return nil, fmt.Errorf("dataset: shuffle window %d must be >= 0", window)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	h, err := readXMCHeader(sc)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return &FileSource{
		path: path, name: path, size: batchSize, window: window,
		header: h, kv: map[int32]float32{},
	}, nil
}

// Name implements Source.
func (s *FileSource) Name() string { return s.name }

// Features implements Source.
func (s *FileSource) Features() int { return s.header.Features }

// Labels implements Source.
func (s *FileSource) Labels() int { return s.header.Labels }

// BatchesPerEpoch implements Source, from the header's declared sample count.
func (s *FileSource) BatchesPerEpoch() int {
	return (s.header.Samples + s.size - 1) / s.size
}

// Reset implements Source: close any open pass, reopen the file, skip the
// header, and re-seed the shuffle window.
func (s *FileSource) Reset(seed uint64) error {
	s.Close()
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	h, err := readXMCHeader(sc)
	if err != nil {
		f.Close()
		return fmt.Errorf("dataset: %s: %w", s.path, err)
	}
	if h != s.header {
		f.Close()
		return fmt.Errorf("dataset: %s: header changed between passes (%v -> %v)", s.path, s.header, h)
	}
	s.f, s.sc, s.lineNo = f, sc, 1
	s.rng = rand.New(rand.NewPCG(seed, 0xF11E50 /* stream id */))
	s.buf = s.buf[:0]
	s.eof = false
	s.emitted = 0
	return nil
}

// Close releases the underlying file. A closed source can be Reset again.
func (s *FileSource) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f, s.sc = nil, nil
	return err
}

// fill parses lines until the shuffle window holds target samples or the
// file is exhausted.
func (s *FileSource) fill(target int) error {
	for len(s.buf) < target && !s.eof {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return fmt.Errorf("dataset: reading %s line %d: %w", s.path, s.lineNo, err)
			}
			s.eof = true
			break
		}
		s.lineNo++
		line := s.sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		idx, val, labels, err := xmcLine(line, s.lineNo, s.header, s.kv)
		if err != nil {
			return err
		}
		s.buf = append(s.buf, streamSample{idx: idx, val: val, labels: labels})
	}
	return nil
}

// take removes and returns one sample. Sequential mode (window <= 1) pops
// the only buffered sample; shuffle mode draws uniformly from the window and
// swap-removes, so every not-yet-emitted sample within the lookahead is
// equally likely next.
func (s *FileSource) take() streamSample {
	i := 0
	if s.window > 1 {
		i = s.rng.IntN(len(s.buf))
	}
	out := s.buf[i]
	last := len(s.buf) - 1
	s.buf[i] = s.buf[last]
	s.buf[last] = streamSample{}
	s.buf = s.buf[:last]
	return out
}

// Next implements Source: assemble up to batchSize samples into a coalesced
// CSR batch.
func (s *FileSource) Next() (sparse.Batch, error) {
	if s.f == nil {
		return nil, fmt.Errorf("dataset: file source used before Reset (or after Close)")
	}
	s.b.Reset()
	n := 0
	for n < s.size {
		// Keep the window full before every draw so each draw sees the whole
		// lookahead; sequential mode buffers exactly one sample at a time.
		if err := s.fill(max(s.window, 1)); err != nil {
			return nil, err
		}
		if len(s.buf) == 0 {
			break
		}
		sm := s.take()
		s.b.Add(sm.idx, sm.val, sm.labels)
		n++
	}
	s.emitted += n
	if s.eof && len(s.buf) == 0 && s.emitted != s.header.Samples {
		// BatchesPerEpoch (and therefore resume fast-forward) trusts the
		// header, so a short file — e.g. a truncated download — must be an
		// error, exactly as ReadXMC rejects it, not a silently shorter pass.
		s.Close()
		return nil, fmt.Errorf("dataset: %s: header declares %d samples, file has %d",
			s.path, s.header.Samples, s.emitted)
	}
	if n == 0 {
		s.Close()
		return nil, io.EOF
	}
	csr, err := s.b.CSR()
	if err != nil {
		return nil, err
	}
	return csr, nil
}
