package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
)

// defaultRingCap bounds how many encoded deltas the hub retains. A replica
// further behind than the ring reaches gets 410 Gone and re-syncs from a
// base — bounded trainer memory, unbounded replica lag tolerance.
const defaultRingCap = 64

// defaultPollWait caps how long a delta long-poll parks before answering
// 204 No Content (clients just poll again).
const defaultPollWait = 25 * time.Second

// encDelta is one encoded delta message held in the replay ring.
type encDelta struct {
	from, to uint64
	data     []byte
}

// Hub is the trainer-side replication endpoint. The training loop calls
// Publish after each snapshot; replicas fetch bases and long-poll deltas
// over the HTTP handlers Register installs. Publish takes one caller at a
// time; the HTTP side is safe for unbounded concurrency.
//
// A version is accepted when Publish admits it and visible when its bytes
// are servable: a base at once, a delta once its background encode lands in
// the ring. Followers only ever see visible versions.
type Hub struct {
	ringCap  int
	pollWait time.Duration

	// qbits, when nonzero, quantizes the stream at publish: bases and
	// deltas ship int8 output sections, so every replica holds
	// and serves the packed representation. Set before the first Publish.
	qbits int

	// The in-flight delta encode: encoded closes when it lands, encErr holds
	// its failure, and scratch is the buffer it frames into. The publishing
	// caller and that one encode goroutine take turns on all three, ordered
	// by encoded.
	encoded chan struct{} // nil when no encode was started
	encErr  error
	scratch bytes.Buffer

	mu          sync.Mutex
	published   uint64             // newest accepted version
	version     uint64             // newest visible version
	cur         *network.Predictor // snapshot at version, for base re-encodes
	base        []byte             // cached encoded base message
	baseVer     uint64             // version base encodes (0 = no cache)
	ring        []encDelta         // contiguous deltas ending at version
	wake        chan struct{}      // closed and replaced whenever version advances
	quarantined uint64             // snapshots refused at admission (non-finite)
}

// NewHub returns an empty hub; it serves errors until the first Publish.
func NewHub() *Hub {
	return &Hub{ringCap: defaultRingCap, pollWait: defaultPollWait, wake: make(chan struct{})}
}

// SetQuantize switches the hub to a quantized replication stream: every
// subsequently encoded base and delta carries the output layer packed to
// bits (8) on wire v2, quantized at publish from the trainer's f32
// snapshots. Call once, before the first Publish; bits 0 keeps the
// full-precision stream.
func (h *Hub) SetQuantize(bits int) error {
	if bits != 0 && bits != 8 {
		return fmt.Errorf("replicate: quantize bits must be 0 or 8 (got %d)", bits)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.published != 0 {
		return fmt.Errorf("replicate: SetQuantize must precede the first Publish")
	}
	h.qbits = bits
	return nil
}

// Publish makes (p, d) the newest replicated snapshot. A nil delta
// publishes p as a fresh base (first snapshot, or tracking disabled) and
// clears the delta ring — followers see a gap and re-sync. A base becomes
// visible before Publish returns. A delta is encoded on a goroutine Publish
// starts, so the caller does not wait for it (the delta references
// immutable snapshot views); it becomes visible, ring entry and long-poll
// wake included, when its bytes land. At most one encode is in flight: every
// Publish first waits for the previous one. If that encode failed, its
// version never became visible, and this Publish returns its error instead
// of admitting (p, d).
//
// Admission validation, while the caller waits: the candidate is scanned
// for NaN/Inf before any state changes — exact on the delta's touched rows,
// sampled on a full base. A poisoned snapshot is refused with an error
// wrapping network.ErrNonFinite, the version does not advance, and
// followers keep replicating the last good version. So is a quantized p
// whose width is not the stream's: its base would not encode at the
// stream's width.
func (h *Hub) Publish(p *network.Predictor, d *network.Delta) error {
	if err := h.settle(); err != nil {
		return err
	}
	h.mu.Lock()
	from, to, qbits := h.published, h.published+1, h.qbits
	h.mu.Unlock()
	if p != nil && p.QuantizedBits() != 0 && p.QuantizedBits() != qbits {
		return fmt.Errorf("replicate: predictor holds int%d rows, the stream is int%d (0 = full precision)",
			p.QuantizedBits(), qbits)
	}
	var verr error
	if d != nil {
		verr = d.CheckFinite()
	} else if p != nil {
		verr = p.CheckFinite()
	}
	if verr != nil {
		h.mu.Lock()
		h.quarantined++
		h.mu.Unlock()
		return fmt.Errorf("replicate: quarantined: %w", verr)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.published = to
	if d == nil {
		h.land(p, to, nil)
		return nil
	}
	encoded := make(chan struct{})
	h.encoded = encoded
	go func() {
		defer close(encoded)
		// On a quantized stream the touched rows are packed here, on the
		// fly — O(touched), never O(model).
		h.scratch.Reset()
		if err := encodeDelta(&h.scratch, d, from, to, qbits); err != nil {
			h.mu.Lock()
			h.encErr, h.published = err, from
			h.mu.Unlock()
			return
		}
		// The next encode reuses scratch: the ring keeps a copy, made
		// before taking the lock.
		data := exactCopy(h.scratch.Bytes())
		h.mu.Lock()
		h.land(p, to, &encDelta{from: from, to: to, data: data})
		h.mu.Unlock()
	}()
	return nil
}

// land makes version to, whose snapshot is p, visible: the newest base
// source, and either a new ring entry (e) or a new ring start (e nil, a
// base). Called with mu held.
func (h *Hub) land(p *network.Predictor, to uint64, e *encDelta) {
	h.version = to
	h.cur = p
	h.base, h.baseVer = nil, 0 // stale; re-encoded on demand
	if e == nil {
		h.ring = nil
	} else {
		h.ring = append(h.ring, *e)
		if len(h.ring) > h.ringCap {
			h.ring = h.ring[len(h.ring)-h.ringCap:]
		}
	}
	close(h.wake)
	h.wake = make(chan struct{})
}

// settle waits for the in-flight encode, if any, to land, and returns (and
// clears) the error it failed with. Publish's caller only.
func (h *Hub) settle() error {
	if h.encoded == nil {
		return nil
	}
	<-h.encoded
	h.encoded = nil
	err := h.encErr
	h.encErr = nil
	return err
}

// Version returns the newest accepted version (0 before the first
// Publish), so Version()+1 names the next Publish. Its bytes may still be
// encoding; followers see it once they land.
func (h *Hub) Version() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published
}

// encodedBase returns the cached encoded base message for the newest
// snapshot, encoding it if the cache is stale.
func (h *Hub) encodedBase() ([]byte, uint64, error) {
	h.mu.Lock()
	cur, ver, qbits := h.cur, h.version, h.qbits
	if h.baseVer == ver && h.base != nil {
		b := h.base
		h.mu.Unlock()
		return b, ver, nil
	}
	h.mu.Unlock()
	if cur == nil {
		return nil, 0, fmt.Errorf("replicate: nothing published yet")
	}
	enc, err := EncodeBaseQ(cur, ver, qbits)
	if err != nil {
		return nil, 0, err
	}
	enc = exactCopy(enc)
	h.mu.Lock()
	defer h.mu.Unlock()
	// Another goroutine may have encoded (or Publish advanced) meanwhile;
	// only cache when still current.
	if h.version == ver {
		h.base, h.baseVer = enc, ver
	}
	return enc, ver, nil
}

// exactCopy returns a copy of msg at capacity == length. The hub keeps up
// to 64 deltas and a base, and a doubling buffer's slack would be up to
// half of each.
func exactCopy(msg []byte) []byte {
	out := make([]byte, len(msg))
	copy(out, msg)
	return out
}

// errGone signals the requested version predates the replay ring.
var errGone = fmt.Errorf("replicate: version no longer in delta ring")

// deltasSince returns the encoded deltas moving version from → current,
// concatenation-ready, or nil when from is already current, or errGone when
// the ring no longer reaches back to from. It also returns the visible
// version it read them at, which the last delta ends on.
func (h *Hub) deltasSince(from uint64) ([][]byte, uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from >= h.version {
		if from > h.version {
			return nil, h.version, errGone // replica claims a future version: trainer restarted
		}
		return nil, h.version, nil
	}
	if len(h.ring) == 0 || h.ring[0].from > from {
		return nil, h.version, errGone
	}
	var out [][]byte
	for _, e := range h.ring {
		if e.from >= from {
			out = append(out, e.data)
		}
	}
	return out, h.version, nil
}

// waitBeyond parks until the hub's visible version exceeds after, the wait
// budget elapses, or ctx is done. Reports whether the version advanced.
func (h *Hub) waitBeyond(ctx context.Context, after uint64, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		h.mu.Lock()
		if h.version > after {
			h.mu.Unlock()
			return true
		}
		wake := h.wake
		h.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			return false
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}

// Register installs the replication endpoints on mux:
//
//	GET /replicate/base          full base snapshot (X-Replicate-Version)
//	GET /replicate/deltas?from=V long-poll; deltas after V, 204 on
//	                             timeout, 410 Gone when V left the ring
//	GET /replicate/status        JSON version/step/ring observability;
//	                             version is visible, published accepted
func (h *Hub) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /replicate/base", h.handleBase)
	mux.HandleFunc("GET /replicate/deltas", h.handleDeltas)
	mux.HandleFunc("GET /replicate/status", h.handleStatus)
}

func (h *Hub) handleBase(w http.ResponseWriter, r *http.Request) {
	enc, ver, err := h.encodedBase()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replicate-Version", strconv.FormatUint(ver, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
	// The chaos point: cut rules tear the body mid-message, flip rules
	// corrupt a byte in flight. The hub's copy stays pristine.
	faultinject.Writer(faultinject.PointReplicateSend, w).Write(enc)
}

func (h *Hub) handleDeltas(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "replicate: bad or missing from parameter", http.StatusBadRequest)
		return
	}
	deltas, ver, derr := h.deltasSince(from)
	if derr == nil && deltas == nil {
		// Caught up: park until something newer is visible.
		if h.waitBeyond(r.Context(), from, h.pollWait) {
			deltas, ver, derr = h.deltasSince(from)
		}
	}
	w.Header().Set("X-Replicate-Version", strconv.FormatUint(ver, 10))
	if derr != nil {
		http.Error(w, derr.Error(), http.StatusGone)
		return
	}
	if deltas == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	total := 0
	for _, d := range deltas {
		total += len(d)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(total))
	out := faultinject.Writer(faultinject.PointReplicateSend, w)
	for _, d := range deltas {
		if _, err := out.Write(d); err != nil {
			return // client gone or injected tear — nothing to clean up
		}
	}
}

func (h *Hub) handleStatus(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	st := struct {
		Version     uint64 `json:"version"`
		Published   uint64 `json:"published"`
		Step        int64  `json:"step"`
		RingLen     int    `json:"ring_len"`
		RingFrom    uint64 `json:"ring_from"`
		BaseBytes   int    `json:"base_bytes"`
		Quarantined uint64 `json:"quarantined"`
		QBits       int    `json:"qbits,omitempty"`
	}{Version: h.version, Published: h.published, RingLen: len(h.ring), BaseBytes: len(h.base),
		Quarantined: h.quarantined, QBits: h.qbits}
	if h.cur != nil {
		st.Step = h.cur.Steps()
	}
	if len(h.ring) > 0 {
		st.RingFrom = h.ring[0].from
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
