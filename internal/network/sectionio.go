package network

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Exported face of the checkpoint-v3 section framing,
//
//	[id uint32][length uint64][payload][crc32c(payload) uint32]
//
// so the replication wire format (internal/replicate) frames its messages
// with the exact machinery checkpoints use: lengths bounded before
// allocation, CRC32C verified before parsing, damage reported as a typed
// *CorruptError. One framing, one set of corruption semantics, one
// battle-tested reader.

// SectionWriter frames sections in a buffer, in place: Section reserves the
// 12-byte header, fill writes the payload straight after it, and the length
// and the CRC32C, computed over the payload where it lies, are patched in.
// No payload is staged and copied. A writer made by NewSectionWriter then
// hands each finished section to its stream and reuses the buffer; one made
// by NewSectionBuffer leaves the sections in the caller's buffer.
type SectionWriter struct {
	buf  *bytes.Buffer
	sink io.Writer // nil: sections stay in buf
	err  error
}

// NewSectionWriter frames sections onto w, one section buffered at a time.
// The caller provides any further buffering.
func NewSectionWriter(w io.Writer) *SectionWriter {
	return &SectionWriter{buf: new(bytes.Buffer), sink: w}
}

// NewSectionBuffer frames sections onto the end of buf, where they stay.
func NewSectionBuffer(buf *bytes.Buffer) *SectionWriter { return &SectionWriter{buf: buf} }

// Section writes one framed section whose payload fill produces. After the
// first error every subsequent call is a no-op; collect it from Err.
func (sw *SectionWriter) Section(id uint32, name string, fill func(io.Writer) error) {
	if sw.err != nil {
		return
	}
	start := sw.buf.Len()
	var hdr [12]byte
	sw.buf.Write(hdr[:])
	if err := fill(sw.buf); err != nil {
		sw.err = wrapWriteErr(name, err)
		return
	}
	sec := sw.buf.Bytes()[start:]
	binary.LittleEndian.PutUint32(sec[0:4], id)
	binary.LittleEndian.PutUint64(sec[4:12], uint64(len(sec)-len(hdr)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(sec[len(hdr):], castagnoli))
	sw.buf.Write(trailer[:])
	if sw.sink == nil {
		return
	}
	if _, err := sw.sink.Write(sw.buf.Bytes()); err != nil {
		sw.err = wrapWriteErr(name, err)
	}
	sw.buf.Reset()
}

// Err returns the first error any Section call hit.
func (sw *SectionWriter) Err() error { return sw.err }

func wrapWriteErr(name string, err error) error {
	return &writeSectionError{name: name, err: err}
}

// writeSectionError keeps write-side failures distinct from the read-side
// *CorruptError while still naming the section.
type writeSectionError struct {
	name string
	err  error
}

func (e *writeSectionError) Error() string {
	return "network: writing section " + e.name + ": " + e.err.Error()
}

func (e *writeSectionError) Unwrap() error { return e.err }

// SectionReader reads framed sections in order, verifying each payload's
// CRC32C before returning it. Failures are typed *CorruptError values
// wrapping ErrCorruptCheckpoint, naming the section and byte offset.
type SectionReader struct {
	r      io.Reader
	offset int64
}

// NewSectionReader reads sections from r. offset is the stream position r
// currently sits at (bytes already consumed before framing starts), used
// only to locate corruption reports.
func NewSectionReader(r io.Reader, offset int64) *SectionReader {
	return &SectionReader{r: r, offset: offset}
}

// Next reads the next section, which must carry wantID, and returns its
// verified payload plus the payload's byte offset in the stream.
func (sr *SectionReader) Next(wantID uint32, name string) ([]byte, int64, error) {
	secStart := sr.offset
	var id uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &id); err != nil {
		return nil, 0, corrupt(name, secStart, "truncated before section header: %w", err)
	}
	if id != wantID {
		return nil, 0, corrupt(name, secStart, "expected section %s (%d), found id %d", name, wantID, id)
	}
	var length uint64
	if err := binary.Read(sr.r, binary.LittleEndian, &length); err != nil {
		return nil, 0, corrupt(name, secStart, "truncated in section header: %w", err)
	}
	if length > maxSectionBytes {
		return nil, 0, corrupt(name, secStart, "declared length %d exceeds bound %d", length, maxSectionBytes)
	}
	// A reader that knows what it has left (a message already in memory)
	// is held to it before the declared length sizes the allocation.
	if lr, ok := sr.r.(interface{ Len() int }); ok && length > uint64(lr.Len()) {
		return nil, 0, corrupt(name, secStart, "declared length %d exceeds the %d bytes left", length, lr.Len())
	}
	payloadOff := secStart + 12
	payload := make([]byte, length)
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		return nil, 0, corrupt(name, payloadOff, "truncated payload (%d bytes declared): %w", length, err)
	}
	var sum uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &sum); err != nil {
		return nil, 0, corrupt(name, payloadOff, "truncated before checksum: %w", err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, 0, corrupt(name, payloadOff, "CRC32C mismatch: computed %#x, stored %#x", got, sum)
	}
	sr.offset = payloadOff + int64(length) + 4
	return payload, payloadOff, nil
}
