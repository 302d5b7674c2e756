package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// Request bodies are decoded in one pass when they are canonical: one
// object with exact lowercase keys, each at most once and without escapes,
// integers where the request holds integers, strict JSON numbers, and only
// whitespace after the object. That is every body json.Marshal makes from
// the request shapes clients send. Any other body goes to encoding/json on
// the same bytes, so what a request decodes to, and the text of every
// decode error, is encoding/json's by construction. Every float has the
// bits of the call encoding/json makes, strconv.ParseFloat(s, 32): float
// decides the short decimals clients send exactly from the digits it
// scans (Clinger's fast path, see there) and hands every other number to
// ParseFloat — more than 19 digits, a mantissa of 2^53 or more, an
// exponent outside [-22, 22], a subnormal or overflowing result, and a
// float64 that lands on a float32 rounding midpoint.

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

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float scans a number by JSON's grammar and parses it as encoding/json
// does for a float32, strconv.ParseFloat(s, 32); one out of float32's
// range fails it. As it scans it accumulates the decimal mantissa man and
// exponent e, and decides most numbers from them by Clinger's fast path
// ("How to Read Floating Point Numbers Accurately", PLDI 1990): with at
// most 19 digits, man < 2^53 and -22 <= e <= 22, man and 10^|e| are both
// float64s, so one multiply or divide rounds once and gives x, the
// float64 nearest the value. In float32's normal range every float32
// rounding midpoint is a float64 too, so x cannot lie across a midpoint
// from the value: float32(x) is the float32 nearest the value unless x is
// a midpoint itself, which is ambiguous. Zero is exact. A midpoint, a
// result outside the normal range (these exponents cannot reach one; the
// bound keeps the argument local) and every number the path does not
// cover go to ParseFloat.
func (d *requestDecoder) float() (float32, bool) {
	d.space()
	b, i := d.b, d.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64 // the digits, wrapped once nd passes 19
	nd, e := 0, 0  // digits from the first nonzero one; decimal exponent
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if man == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
		if i == frac {
			return 0, false
		}
		e = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		digits, x := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if x < 1e6 { // past the fast path either way; no wrap
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, false
		}
		if eneg {
			x = -x
		}
		e += x
	}
	d.i = i
	if nd <= 19 && man < 1<<53 && -22 <= e && e <= 22 {
		x := float64(man)
		if e < 0 {
			x /= pow10[-e]
		} else {
			x *= pow10[e]
		}
		// The low 29 of float64's 52 mantissa bits are the ones float32
		// drops; 1<<28 there is a midpoint.
		if x == 0 || 0x1p-126 <= x && x < 0x1p127 && math.Float64bits(x)&(1<<29-1) != 1<<28 {
			if neg {
				x = -x
			}
			return float32(x), true
		}
	}
	x, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(x), err == nil
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
