package replicate

import (
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
// over the HTTP handlers Register installs. Publish must be called from
// the training goroutine (it serializes views, same contract as
// Snapshot); the HTTP side is safe for unbounded concurrency.
type Hub struct {
	ringCap  int
	pollWait time.Duration

	// qbits, when nonzero, quantizes the stream at publish: bases and
	// deltas ship int8 output sections, so every replica holds
	// and serves the packed representation. Set before the first Publish.
	qbits int

	mu          sync.Mutex
	version     uint64             // replication version of the newest snapshot
	cur         *network.Predictor // newest snapshot, for base re-encodes
	base        []byte             // cached encoded base message
	baseVer     uint64             // version base encodes (0 = no cache)
	ring        []encDelta         // contiguous deltas ending at version
	wake        chan struct{}      // closed and replaced on every Publish
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
	if h.version != 0 {
		return fmt.Errorf("replicate: SetQuantize must precede the first Publish")
	}
	h.qbits = bits
	return nil
}

// Publish makes (p, d) the newest replicated snapshot. A nil delta
// publishes p as a fresh base (first snapshot, or tracking disabled) and
// clears the delta ring — followers see a gap and re-sync. With a delta,
// the hub encodes it immediately (the delta references immutable snapshot
// views, but encoding now keeps memory bounded to the encoded bytes) and
// appends it to the replay ring.
//
// Admission validation: the candidate is scanned for NaN/Inf before any
// state changes — exact on the delta's touched rows, sampled on a full
// base. A poisoned snapshot is refused with an error wrapping
// network.ErrNonFinite, the version does not advance, and followers keep
// replicating the last good version.
func (h *Hub) Publish(p *network.Predictor, d *network.Delta) error {
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
	var enc []byte
	var err error
	h.mu.Lock()
	from, to, qbits := h.version, h.version+1, h.qbits
	h.mu.Unlock()
	if d != nil {
		// Encode outside the lock: serving-path handlers must not wait on
		// snapshot serialization. On a quantized stream the touched rows are
		// packed here, on the fly — O(touched), never O(model).
		if qbits != 0 {
			enc, err = EncodeDeltaQ(d, from, to, qbits)
		} else {
			enc, err = EncodeDelta(d, from, to)
		}
		if err != nil {
			return err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.version = to
	h.cur = p
	h.base, h.baseVer = nil, 0 // stale; re-encoded on demand
	if d == nil {
		h.ring = nil
	} else {
		h.ring = append(h.ring, encDelta{from: from, to: to, data: enc})
		if len(h.ring) > h.ringCap {
			h.ring = h.ring[len(h.ring)-h.ringCap:]
		}
	}
	close(h.wake)
	h.wake = make(chan struct{})
	return nil
}

// Version returns the replication version of the newest published
// snapshot (0 before the first Publish).
func (h *Hub) Version() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.version
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
	var enc []byte
	var err error
	if qbits != 0 {
		enc, err = EncodeBaseQ(cur, ver, qbits)
	} else {
		enc, err = EncodeBase(cur, ver)
	}
	if err != nil {
		return nil, 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Another goroutine may have encoded (or Publish advanced) meanwhile;
	// only cache when still current.
	if h.version == ver {
		h.base, h.baseVer = enc, ver
	}
	return enc, ver, nil
}

// errGone signals the requested version predates the replay ring.
var errGone = fmt.Errorf("replicate: version no longer in delta ring")

// deltasSince returns the encoded deltas moving version from → current,
// concatenation-ready, or (nil, nil) when from is already current, or
// errGone when the ring no longer reaches back to from.
func (h *Hub) deltasSince(from uint64) ([][]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from >= h.version {
		if from > h.version {
			return nil, errGone // replica claims a future version: trainer restarted
		}
		return nil, nil
	}
	if len(h.ring) == 0 || h.ring[0].from > from {
		return nil, errGone
	}
	var out [][]byte
	for _, e := range h.ring {
		if e.from >= from {
			out = append(out, e.data)
		}
	}
	return out, nil
}

// waitBeyond parks until the hub's version exceeds after, the wait
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
//	GET /replicate/status        JSON version/step/ring observability
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
	deltas, derr := h.deltasSince(from)
	if derr == nil && deltas == nil {
		// Caught up: park until something newer is published.
		if h.waitBeyond(r.Context(), from, h.pollWait) {
			deltas, derr = h.deltasSince(from)
		}
	}
	ver := h.Version()
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
		Step        int64  `json:"step"`
		RingLen     int    `json:"ring_len"`
		RingFrom    uint64 `json:"ring_from"`
		BaseBytes   int    `json:"base_bytes"`
		Quarantined uint64 `json:"quarantined"`
		QBits       int    `json:"qbits,omitempty"`
	}{Version: h.version, RingLen: len(h.ring), BaseBytes: len(h.base),
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
