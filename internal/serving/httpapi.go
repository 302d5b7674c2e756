package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// Server routes prediction traffic through the serving pipeline: a
// SnapshotManager publishes versioned Predictor snapshots (hot-swapped by
// the publisher — a background trainer or a replication client — without
// stalling in-flight batches), and a Batcher coalesces the exact entries of
// concurrent /predict and /predict/batch requests into fused batch
// forwards. With cfg.Direct the batcher is bypassed and every request's
// exact entries run as their own PredictEntries call — the pre-batching
// behavior, kept as the A/B baseline for the load generator.
//
// It is the HTTP front end of cmd/slide-serve whatever its snapshot source
// (checkpoint, demo trainer, or -follow replication); the hooks on
// ServerConfig let a follower extend readiness and /stats without forking
// the handler set.
type Server struct {
	cfg      ServerConfig
	mgr      *SnapshotManager
	batcher  *Batcher // nil in direct mode
	draining atomic.Bool
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// DefaultK is the top-k applied when a request omits k (default 5).
	DefaultK int
	// Direct bypasses the micro-batcher: one PredictEntries call per
	// request.
	Direct bool
	// Batch configures the micro-batcher (ignored under Direct).
	Batch Config
	// DefaultDeadline is the service deadline applied to requests that do
	// not carry their own deadline_ms (zero = none).
	DefaultDeadline time.Duration
	// MaxStale is the snapshot age beyond which /healthz/ready reports the
	// server unready — the publishing side stopped and traffic should
	// drain to a healthier replica (zero = staleness never gates
	// readiness, the right call for frozen-checkpoint serving).
	MaxStale time.Duration
	// ReadyReasons, when set, contributes additional unreadiness reasons
	// to /healthz/ready (e.g. a replica's version skew or a disconnected
	// replication stream). Empty result = ready.
	ReadyReasons func() []string
	// StatsExtra, when set, is merged into the /stats JSON object (e.g. a
	// replica's applied-version and re-sync counters). Keys collide with
	// the built-in fields at the caller's peril.
	StatsExtra func() map[string]any
}

// NewServer wires a serving pipeline around the initial predictor.
func NewServer(p Predictor, cfg ServerConfig) *Server {
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 5
	}
	s := &Server{cfg: cfg, mgr: NewSnapshotManager(p)}
	if !cfg.Direct {
		s.batcher = NewBatcher(s.mgr, cfg.Batch)
	}
	return s
}

// Publish hot-swaps in a new snapshot; in-flight requests and batches
// finish on the one they captured.
func (s *Server) Publish(p Predictor) { s.mgr.Publish(p) }

// Close releases the batcher workers (draining anything queued).
func (s *Server) Close() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// Shutdown drains the server behind hs: /healthz/ready answers 503
// ("draining: shutdown in progress") from now on, so load balancers steer
// new traffic away; hs stops accepting and waits for in-flight handlers
// (bounded by ctx); then the batcher flushes whatever is queued and its
// workers exit.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	s.draining.Store(true)
	err := hs.Shutdown(ctx)
	s.Close()
	return err
}

// Mux returns the endpoint set; callers may add more handlers (e.g. the
// replication hub's /replicate/*) before serving it.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /predict/batch", s.handlePredictBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// predictRequest is one inference request. Values may be omitted, in which
// case every index gets weight 1 (set-valued features). K distinguishes
// "absent" (use the server default) from an explicit value: explicit k <= 0
// or k > the label space is a validation error, never silently clamped.
// Sampled selects sub-linear LSH inference; on models without LSH tables
// the server falls back to the exact path and reports sampled=false.
type predictRequest struct {
	Indices []int32   `json:"indices"`
	Values  []float32 `json:"values,omitempty"`
	K       *int      `json:"k,omitempty"`
	Sampled bool      `json:"sampled,omitempty"`
	// DeadlineMS is the client's service budget in milliseconds: if the
	// request cannot be served within it, the server answers
	// 504 Gateway Timeout instead of serving a useless late response.
	// Zero means the server default (the -default-deadline flag).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type predictResponse struct {
	Labels []int32 `json:"labels"`
	// Sampled reports whether LSH-sampled retrieval actually served the
	// request (false when the request asked for it but the model has no
	// tables and the server fell back to exact ranking).
	Sampled bool `json:"sampled"`
	// Version identifies the snapshot that served the request.
	Version uint64 `json:"version"`
	// Degraded marks a response served through the sampled path under
	// overload (tiered degradation), not the exact one the client asked for.
	Degraded bool `json:"degraded,omitempty"`
}

type batchRequest struct {
	Samples []predictRequest `json:"samples"`
	K       *int             `json:"k,omitempty"`
	Sampled bool             `json:"sampled,omitempty"`
	// DeadlineMS is the service budget for the whole batch (see
	// predictRequest.DeadlineMS).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

type batchResponse struct {
	Labels  [][]int32 `json:"labels"`
	Sampled bool      `json:"sampled"`
	// Version identifies the snapshot that served the batch. It is omitted
	// in the rare case where the batch split across flushes spanning a
	// snapshot hot-swap, so different samples were served by different
	// versions — the field never misattributes a snapshot.
	Version uint64 `json:"version,omitempty"`
	// Degraded reports whether any sample was served through the degraded
	// (overload-sampled) path.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// validate checks one request against the current snapshot and resolves it
// to a batch entry. Every bad-input shape is a 400: empty or out-of-range
// indices (which would otherwise panic deep in the forward pass),
// mismatched indices/values lengths, and explicit k <= 0 or k beyond the
// label space — the server never silently clamps what the client asked for.
func (s *Server) validate(r *predictRequest, p Predictor) (slide.BatchEntry, error) {
	if len(r.Indices) == 0 {
		return slide.BatchEntry{}, fmt.Errorf("indices must be non-empty")
	}
	features := int32(p.NumFeatures())
	for i, idx := range r.Indices {
		if idx < 0 || idx >= features {
			return slide.BatchEntry{}, fmt.Errorf("index %d (position %d) out of range [0, %d)", idx, i, features)
		}
	}
	if r.Values == nil {
		r.Values = make([]float32, len(r.Indices))
		for i := range r.Values {
			r.Values[i] = 1
		}
	}
	if len(r.Values) != len(r.Indices) {
		return slide.BatchEntry{}, fmt.Errorf("%d indices but %d values", len(r.Indices), len(r.Values))
	}
	k := s.cfg.DefaultK
	if r.K != nil {
		k = *r.K
		if k <= 0 {
			return slide.BatchEntry{}, fmt.Errorf("k must be positive, got %d", k)
		}
		if k > p.NumLabels() {
			return slide.BatchEntry{}, fmt.Errorf("k %d exceeds label space %d", k, p.NumLabels())
		}
	}
	if k > p.NumLabels() {
		// Only reachable via a default k larger than a small model's label
		// space; the default is a server setting, so clamping is correct.
		k = p.NumLabels()
	}
	return slide.BatchEntry{Indices: r.Indices, Values: r.Values, K: k}, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, req *http.Request) {
	var pr predictRequest
	if err := readRequest(req.Body, &pr); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if r, ok := s.predict(w, req, []predictRequest{pr}, pr.DeadlineMS, false); ok {
		writeJSON(w, http.StatusOK, predictResponse{Labels: r.Labels[0], Sampled: r.Sampled, Version: r.Version, Degraded: r.Degraded})
	}
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, req *http.Request) {
	var br batchRequest
	if err := readRequest(req.Body, &br); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(br.Samples) == 0 {
		writeError(w, http.StatusBadRequest, "samples must be non-empty")
		return
	}
	for i := range br.Samples {
		if br.Samples[i].K == nil {
			br.Samples[i].K = br.K
		}
		br.Samples[i].Sampled = br.Samples[i].Sampled || br.Sampled
	}
	if r, ok := s.predict(w, req, br.Samples, br.DeadlineMS, true); ok {
		writeJSON(w, http.StatusOK, r)
	}
}

// predict is the one request path behind /predict (a batch of one sample)
// and /predict/batch. It validates every sample against one captured
// snapshot p and serves the sampled ones one at a time on p through
// predictSampled. All the others — exact samples, and sampled ones on a
// model without LSH tables — go out as one batch: one PredictEntries call
// on p in Direct mode, else one Batcher.SubmitMany under the request's
// deadline, where they coalesce with concurrent traffic (and may split
// across flushes, possibly spanning a snapshot swap, so Version is omitted
// when samples were served by different snapshots). On failure the error
// response is written and ok is false; batch names the failing sample in
// validation errors.
func (s *Server) predict(w http.ResponseWriter, req *http.Request, samples []predictRequest, deadlineMS int64, batch bool) (resp batchResponse, ok bool) {
	p := s.mgr.Current()
	entries := make([]slide.BatchEntry, len(samples))
	exact := make([]slide.BatchEntry, 0, len(samples))
	for i := range samples {
		e, err := s.validate(&samples[i], p)
		if err != nil {
			if batch {
				err = fmt.Errorf("sample %d: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return resp, false
		}
		entries[i] = e
		if samples[i].Sampled = samples[i].Sampled && p.Sampled(); !samples[i].Sampled {
			exact = append(exact, e)
		}
	}
	var results []Result
	switch {
	case len(exact) == 0:
	case s.batcher == nil:
		labels, err := p.PredictEntries(exact)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return resp, false
		}
		for _, l := range labels {
			results = append(results, Result{Labels: l, Version: p.Version()})
		}
	default:
		ctx, cancel := s.deadlineCtx(req.Context(), deadlineMS)
		defer cancel()
		var err error
		if results, err = s.batcher.SubmitMany(ctx, exact); err != nil {
			writeBatcherError(w, req, err)
			return resp, false
		}
	}
	resp = batchResponse{Labels: make([][]int32, len(entries)), Sampled: len(exact) == 0}
	for i, e := range entries {
		var r Result
		if samples[i].Sampled {
			labels, err := predictSampled(p, e)
			if err != nil {
				writeBatcherError(w, req, err)
				return resp, false
			}
			r = Result{Labels: labels, Version: p.Version()}
		} else {
			r, results = results[0], results[1:]
		}
		resp.Labels[i] = r.Labels
		resp.Degraded = resp.Degraded || r.Degraded
		if i == 0 {
			resp.Version = r.Version
		} else if r.Version != resp.Version {
			resp.Version = 0 // mixed-version batch: omit rather than misattribute
		}
	}
	return resp, true
}

// deadlineCtx derives the request's service context: the wire deadline_ms
// wins, then the server default, else the transport context unchanged. The
// batcher propagates the deadline with the queued request and rejects it
// with ErrDeadline (→ 504) once it cannot be met.
func (s *Server) deadlineCtx(parent context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithDeadline(parent, time.Now().Add(d))
}

// writeBatcherError maps pipeline errors to HTTP: overload and snapshot
// skew are retryable (429/503 + Retry-After), shutdown is 503, a client
// that already went away gets no response body (writing one would just
// misreport the abort as a 5xx server fault), and anything else is a
// genuine 500.
func writeBatcherError(w http.ResponseWriter, req *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		// Backpressure: shedding happens at admission, so an overloaded
		// server answers in microseconds instead of queuing without bound.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	case errors.Is(err, ErrDeadline):
		// Deliberate deadline shedding: the request's budget (deadline_ms or
		// the server default) could not be met. Checked before the transport
		// context, because a server-derived deadline expiring also cancels
		// the derived context while the client is still listening for the 504.
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, ErrSnapshotSkew):
		// The model was hot-swapped between admission and flush and the new
		// one rejects this request's shape; a retry revalidates against it.
		w.Header().Set("Retry-After", "0")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	case req.Context().Err() != nil:
		// Client disconnected or timed out while queued; nobody is reading.
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	p := s.mgr.Current()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"labels":  p.NumLabels(),
		"sampled": p.Sampled(),
		"steps":   p.Steps(),
		"version": p.Version(),
	})
}

// handleLive is the liveness probe: the process is up and serving HTTP.
// Always 200 — an overloaded or stale server must not be restarted, only
// taken out of rotation (that's readiness).
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "live"})
}

// handleReady is the readiness probe: 503 when new traffic should go
// elsewhere — Shutdown has begun draining the server, the admission queue
// is saturated (arrivals are being shed), the snapshot is older than
// MaxStale (the publishing side stopped), or the ReadyReasons hook reports
// a problem (a replica's version skew or lost replication stream). All
// conditions are reported, so an operator sees why a replica left rotation.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining: shutdown in progress")
	}
	if s.batcher != nil {
		if st := s.batcher.Stats(); st.QueueDepth >= st.QueueCap {
			reasons = append(reasons, fmt.Sprintf("admission queue full (%d/%d)", st.QueueDepth, st.QueueCap))
		}
	}
	if s.cfg.MaxStale > 0 {
		if age := s.mgr.Age(); age > s.cfg.MaxStale {
			reasons = append(reasons, fmt.Sprintf("snapshot stale: published %s ago (limit %s)",
				age.Round(time.Millisecond), s.cfg.MaxStale))
		}
	}
	if s.mgr.QuarantinedLast() {
		reasons = append(reasons, fmt.Sprintf("latest snapshot quarantined: %s", s.mgr.QuarantineReason()))
	}
	if s.cfg.ReadyReasons != nil {
		reasons = append(reasons, s.cfg.ReadyReasons()...)
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready", "reasons": reasons})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// statsResponse is the /stats payload: queue and batching counters from the
// pipeline plus snapshot freshness.
type statsResponse struct {
	Mode            string   `json:"mode"` // "batched" or "direct"
	QueueDepth      int      `json:"queue_depth"`
	QueueCap        int      `json:"queue_cap"`
	Workers         int      `json:"workers"`
	MaxBatch        int      `json:"max_batch"`
	ServiceEstMs    float64  `json:"service_estimate_ms"`
	Admitted        uint64   `json:"admitted"`
	Served          uint64   `json:"served"`
	Failed          uint64   `json:"failed"`
	Shed            uint64   `json:"shed"`
	Canceled        uint64   `json:"canceled"`
	Deadlined       uint64   `json:"deadlined"`
	DegradedServed  uint64   `json:"degraded_served"`
	DegradedMode    bool     `json:"degraded_mode"`
	DegradeSwitches uint64   `json:"degrade_switches"`
	Batches         uint64   `json:"batches"`
	MeanBatch       float64  `json:"mean_batch"`
	BatchSizes      []uint64 `json:"batch_size_hist,omitempty"`
	P50Ms           float64  `json:"latency_p50_ms"`
	P99Ms           float64  `json:"latency_p99_ms"`
	SnapshotVersion uint64   `json:"snapshot_version"`
	SnapshotSteps   int64    `json:"snapshot_steps"`
	SnapshotSwaps   uint64   `json:"snapshot_swaps"`
	SnapshotAgeMs   float64  `json:"snapshot_age_ms"`
	// Quarantined counts snapshot candidates refused at admission for
	// non-finite weights; QuarantineReason is the most recent refusal.
	Quarantined      uint64 `json:"quarantined"`
	QuarantineReason string `json:"quarantine_reason,omitempty"`
	// SnapshotPrecision names the current snapshot's output-layer storage
	// (f32|bf16|int8) and SnapshotPackedBytes its serialized size —
	// present when the predictor reports them (slide.Predictor does).
	SnapshotPrecision   string `json:"snapshot_precision,omitempty"`
	SnapshotPackedBytes int64  `json:"snapshot_packed_bytes,omitempty"`
}

// precisionReporter is the optional observability surface a predictor may
// implement (slide.Predictor does) to expose its
// output-layer storage format on /stats.
type precisionReporter interface {
	SnapshotPrecision() string
	PackedBytes() int64
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	p := s.mgr.Current()
	resp := statsResponse{
		Mode:            "direct",
		SnapshotVersion: p.Version(),
		SnapshotSteps:   p.Steps(),
		SnapshotSwaps:   s.mgr.Swaps(),
		SnapshotAgeMs:   float64(s.mgr.Age().Microseconds()) / 1000,

		Quarantined:      s.mgr.Quarantined(),
		QuarantineReason: s.mgr.QuarantineReason(),
	}
	if pr, ok := p.(precisionReporter); ok {
		resp.SnapshotPrecision = pr.SnapshotPrecision()
		resp.SnapshotPackedBytes = pr.PackedBytes()
	}
	if s.batcher != nil {
		st := s.batcher.Stats()
		resp.Mode = "batched"
		resp.QueueDepth = st.QueueDepth
		resp.QueueCap = st.QueueCap
		resp.Workers = st.Workers
		resp.MaxBatch = st.MaxBatch
		resp.ServiceEstMs = float64(st.ServiceEstimate.Microseconds()) / 1000
		resp.Admitted = st.Admitted
		resp.Served = st.Served
		resp.Failed = st.Failed
		resp.Shed = st.Shed
		resp.Canceled = st.Canceled
		resp.Deadlined = st.Deadlined
		resp.DegradedServed = st.DegradedServed
		resp.DegradedMode = st.DegradedMode
		resp.DegradeSwitches = st.DegradeSwitches
		resp.Batches = st.Batches
		resp.MeanBatch = st.MeanBatch
		resp.BatchSizes = st.BatchSizes
		resp.P50Ms = float64(st.P50.Microseconds()) / 1000
		resp.P99Ms = float64(st.P99.Microseconds()) / 1000
	}
	if s.cfg.StatsExtra == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Merge the hook's fields into the payload: round-trip the typed
	// struct through a map (cold path; /stats is observability traffic).
	raw, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	merged := map[string]any{}
	_ = json.Unmarshal(raw, &merged)
	for k, v := range s.cfg.StatsExtra() {
		merged[k] = v
	}
	writeJSON(w, http.StatusOK, merged)
}
