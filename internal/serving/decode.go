package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Request bodies are decoded in one pass when they are canonical: one
// object with exact lowercase keys, each at most once and without escapes,
// integers where the request holds integers, strict JSON numbers, and only
// whitespace after the object. That is every body json.Marshal makes from
// the request shapes clients send. Any other body goes to encoding/json on
// the same bytes, so what a request decodes to, and the text of every
// decode error, is encoding/json's by construction. Floats are parsed by
// the call encoding/json makes, strconv.ParseFloat(s, 32), so every value
// has the same bits.

// requestDecoder holds one request's body and the scratch the one-pass
// decoder fills. It is pooled; nothing decoded aliases it.
type requestDecoder struct {
	body bytes.Buffer
	b    []byte // the body being scanned
	i    int    // scan position in b
	// Every sample's indices and values in body order, and each sample
	// object with its spans in them. They are copied into arrays sized to
	// the body once the whole object has scanned.
	idx     []int32
	val     []float32
	samples []sampleSpan
}

// sampleSpan is one scanned request object: its scalar fields, the keys
// it held, and where its indices and values sit in the scratch.
type sampleSpan struct {
	r            predictRequest // scalar fields only
	seen         field
	idxLo, idxHi int
	valLo, valHi int
}

// field is a bit per request key: a canonical object holds each once.
type field uint8

const (
	fieldIndices field = 1 << iota
	fieldValues
	fieldSamples
	fieldK
	fieldSampled
	fieldDeadline
)

var decoders = sync.Pool{New: func() any { return new(requestDecoder) }}

// readRequest reads body to EOF and decodes it into v, a *predictRequest
// or a *batchRequest.
func readRequest(body io.Reader, v any) error {
	d := decoders.Get().(*requestDecoder)
	defer decoders.Put(d)
	d.body.Reset()
	if _, err := d.body.ReadFrom(body); err != nil {
		return err
	}
	return d.decode(d.body.Bytes(), v)
}

// decode decodes body into v: in one pass when body is canonical, else
// by encoding/json.
func (d *requestDecoder) decode(body []byte, v any) error {
	if d.fast(body, v) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// fast decodes a canonical body into v and reports whether it was one.
// v is left untouched when it was not.
func (d *requestDecoder) fast(body []byte, v any) bool {
	d.b, d.i = body, 0
	defer d.reset()
	switch v := v.(type) {
	case *predictRequest:
		if !d.sample() || !d.end() {
			return false
		}
		var out [1]predictRequest
		d.finish(out[:])
		*v = out[0]
	case *batchRequest:
		var top sampleSpan
		if !d.object(&top, true) || !d.end() {
			return false
		}
		*v = batchRequest{K: top.r.K, Sampled: top.r.Sampled, DeadlineMS: top.r.DeadlineMS}
		if top.seen&fieldSamples != 0 {
			v.Samples = make([]predictRequest, len(d.samples))
			d.finish(v.Samples)
		}
	default:
		return false
	}
	return true
}

// finish fills out with the scanned samples. All of them share one indices
// and one values array, each sliced to its own span; an empty span of a
// present key is an empty non-nil slice, as encoding/json decodes [].
func (d *requestDecoder) finish(out []predictRequest) {
	idx := make([]int32, len(d.idx))
	copy(idx, d.idx)
	val := make([]float32, len(d.val))
	copy(val, d.val)
	for i, s := range d.samples {
		out[i] = s.r
		if s.seen&fieldIndices != 0 {
			out[i].Indices = idx[s.idxLo:s.idxHi:s.idxHi]
		}
		if s.seen&fieldValues != 0 {
			out[i].Values = val[s.valLo:s.valHi:s.valHi]
		}
	}
}

func (d *requestDecoder) reset() {
	clear(d.samples) // drop the K pointers
	d.b, d.idx, d.val, d.samples = nil, d.idx[:0], d.val[:0], d.samples[:0]
}

// sample scans one request object into the scratch.
func (d *requestDecoder) sample() bool {
	var s sampleSpan
	if !d.object(&s, false) {
		return false
	}
	d.samples = append(d.samples, s)
	return true
}

// object scans one object into s: a request's fields, or with batch a
// batch's, whose samples go to the scratch.
func (d *requestDecoder) object(s *sampleSpan, batch bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		f := d.key(batch)
		if f == 0 || s.seen&f != 0 || !d.next(':') {
			return false
		}
		s.seen |= f
		ok := false
		switch f {
		case fieldIndices:
			s.idxLo = len(d.idx)
			ok = d.list(d.index)
			s.idxHi = len(d.idx)
		case fieldValues:
			s.valLo = len(d.val)
			ok = d.list(d.value)
			s.valHi = len(d.val)
		case fieldSamples:
			ok = d.list(d.sample)
		case fieldK:
			var k int64
			if k, ok = d.integer(strconv.IntSize); ok {
				s.r.K = new(int)
				*s.r.K = int(k)
			}
		case fieldSampled:
			s.r.Sampled, ok = d.boolean()
		case fieldDeadline:
			s.r.DeadlineMS, ok = d.integer(64)
		}
		if !ok {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// key scans one member name and the field it names; 0 for any other
// name, an escaped one, or a key a request of this shape does not hold.
func (d *requestDecoder) key(batch bool) field {
	if !d.next('"') {
		return 0
	}
	start := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		if d.b[d.i] == '\\' {
			return 0
		}
		d.i++
	}
	if d.i == len(d.b) {
		return 0
	}
	name := d.b[start:d.i]
	d.i++
	switch string(name) {
	case "k":
		return fieldK
	case "sampled":
		return fieldSampled
	case "deadline_ms":
		return fieldDeadline
	case "samples":
		if batch {
			return fieldSamples
		}
	case "indices":
		if !batch {
			return fieldIndices
		}
	case "values":
		if !batch {
			return fieldValues
		}
	}
	return 0
}

// list scans a JSON array, calling elem to scan each element.
func (d *requestDecoder) list(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for elem() {
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
	return false
}

func (d *requestDecoder) index() bool {
	n, ok := d.integer(32)
	d.idx = append(d.idx, int32(n))
	return ok
}

func (d *requestDecoder) value() bool {
	x, ok := d.float()
	d.val = append(d.val, x)
	return ok
}

// integer scans a JSON integer that fits in a signed integer of bits
// bits, accumulating it as its digits are scanned. A fraction or an
// exponent after the digits is left for the caller, whose next delimiter
// then fails: encoding/json refuses those for integer fields too.
func (d *requestDecoder) integer(bits int) (int64, bool) {
	d.space()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var n uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		n = n*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	// 19 digits cannot wrap a uint64; more than 19 overflow any int64.
	if digits == 0 || digits > 19 || digits > 1 && d.b[start] == '0' {
		return 0, false
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		if n > limit {
			return 0, false
		}
		return -int64(n), true
	}
	if n >= limit {
		return 0, false
	}
	return int64(n), true
}

// float scans a number by JSON's grammar and parses it as encoding/json
// does for a float32; one out of float32's range fails it.
func (d *requestDecoder) float() (float32, bool) {
	d.space()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return 0, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return 0, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return 0, false
		}
	}
	x, err := strconv.ParseFloat(string(d.b[start:d.i]), 32)
	return float32(x), err == nil
}

func (d *requestDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *requestDecoder) boolean() (bool, bool) {
	d.space()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// next consumes c, after any whitespace, and reports whether it was there.
func (d *requestDecoder) next(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *requestDecoder) end() bool {
	d.space()
	return d.i == len(d.b)
}

func (d *requestDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
