package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// LoadSpec describes a deterministic load-test request set: the same spec
// always produces the same requests in the same order, so two servers (or
// two runs) are exercised identically and responses can be compared
// bit-for-bit.
type LoadSpec struct {
	// Scale and Seed parameterize the AmazonLike dataset the requests are
	// drawn from (use the demo server's values so indices are in range).
	Scale float64
	Seed  uint64
	// Requests is the total request count.
	Requests int
	// K is the top-k per request. With MixedK, request i asks for
	// 1 + i mod K instead — per-request k inside shared batches.
	K      int
	MixedK bool
}

// BuildLoad materializes the request set of a spec. Deterministic in the
// spec alone.
func BuildLoad(spec LoadSpec) ([]slide.BatchEntry, error) {
	if spec.Requests <= 0 {
		return nil, fmt.Errorf("serving: load spec needs Requests > 0")
	}
	if spec.K <= 0 {
		return nil, fmt.Errorf("serving: load spec needs K > 0")
	}
	_, test, err := slide.AmazonLike(spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	if test.Len() == 0 {
		return nil, fmt.Errorf("serving: load dataset at scale %g is empty", spec.Scale)
	}
	entries := make([]slide.BatchEntry, spec.Requests)
	for i := range entries {
		s := test.Sample(i % test.Len())
		k := spec.K
		if spec.MixedK {
			k = 1 + i%spec.K
		}
		entries[i] = slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: k}
	}
	return entries, nil
}

// LoadReport summarizes one closed-loop run.
type LoadReport struct {
	// Duration is wall clock for the whole run; QPS is
	// Requests/Duration.
	Duration time.Duration
	QPS      float64
	// Requests counts completed requests; Errors those that failed
	// (non-2xx other than 429, transport errors, malformed bodies).
	Requests, Errors int
	// Retried429 counts 429 responses (each is retried after the server's
	// Retry-After, so a shed request still completes — closed-loop load
	// generators must retry or overload tests undercount).
	Retried429 int
	// Reconnects counts transport-level connection failures (refused, reset,
	// torn mid-response) that were retried rather than failed. A replica
	// restarting under load drops its connections; counting those against
	// Errors would make every rolling restart look like an outage.
	Reconnects int
	// Degraded counts requests served through the degraded (sampled) path,
	// as reported by the server. Deadline504 counts requests the server
	// timed out (504) — deliberate deadline shedding under the client's
	// own budget, reported separately from Errors.
	Degraded, Deadline504 int
	// P50/P99 are successful-request latencies (final attempt only).
	P50, P99 time.Duration
	// MinVersion/MaxVersion bound the snapshot versions that served the
	// successful responses (both zero when no response carried a version)
	// — across a replica cluster, their spread is the observed version
	// skew.
	MinVersion, MaxVersion uint64
	// Responses[i] holds the labels served for request i (nil on error) —
	// index-aligned with the BuildLoad request set, for bit-identity
	// checks against a direct Predictor.
	Responses [][]int32
	// FirstError samples one failure for diagnostics.
	FirstError string
}

// loadgen wire shapes — the cmd/slide-serve /predict contract.
type loadReq struct {
	Indices    []int32   `json:"indices"`
	Values     []float32 `json:"values,omitempty"`
	K          int       `json:"k"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
}

type loadResp struct {
	Labels   []int32 `json:"labels"`
	Degraded bool    `json:"degraded,omitempty"`
	Version  uint64  `json:"version,omitempty"`
}

// LoadOptions tunes RunLoadOpts beyond the request set itself.
type LoadOptions struct {
	// Deadline, when positive, attaches a per-request service deadline
	// (the wire deadline_ms field): the server answers 504 when the
	// request cannot be served within it. 504s are not retried.
	Deadline time.Duration
}

// RunLoadOpts drives the request set against baseURL with the given number
// of closed-loop clients: client c owns requests c, c+clients,
// c+2·clients, … and sends them sequentially, one in flight at a time, with
// the per-request options opts. Request assignment and payloads are
// deterministic; only timing varies between runs. A nil client uses a
// transport sized so every load client keeps one connection.
func RunLoadOpts(ctx context.Context, baseURL string, client *http.Client, entries []slide.BatchEntry, clients int, opts LoadOptions) LoadReport {
	if clients <= 0 {
		clients = 1
	}
	if clients > len(entries) {
		clients = len(entries)
	}
	if client == nil {
		tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
		client = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}

	report := LoadReport{Responses: make([][]int32, len(entries))}
	latencies := make([]time.Duration, len(entries))
	versions := make([]uint64, len(entries))
	errs := make([]string, clients)
	perErr := make([]int, clients)
	perRetry := make([]int, clients)
	perReconn := make([]int, clients)
	perDegraded := make([]int, clients)
	perDeadline := make([]int, clients)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(entries); i += clients {
				if err := ctx.Err(); err != nil {
					perErr[c]++
					if errs[c] == "" {
						errs[c] = fmt.Sprintf("request %d skipped: %v", i, err)
					}
					continue
				}
				r := postPredict(ctx, client, baseURL, entries[i], opts)
				perRetry[c] += r.retries
				perReconn[c] += r.reconnects
				if r.deadline {
					perDeadline[c]++
					continue
				}
				if r.err != nil {
					perErr[c]++
					if errs[c] == "" {
						errs[c] = fmt.Sprintf("request %d: %v", i, r.err)
					}
					continue
				}
				if r.degraded {
					perDegraded[c]++
				}
				report.Responses[i] = r.labels
				latencies[i] = r.latency
				versions[i] = r.version
			}
		}(c)
	}
	wg.Wait()
	report.Duration = time.Since(start)
	report.Requests = len(entries)
	for c := 0; c < clients; c++ {
		report.Errors += perErr[c]
		report.Retried429 += perRetry[c]
		report.Reconnects += perReconn[c]
		report.Degraded += perDegraded[c]
		report.Deadline504 += perDeadline[c]
		if report.FirstError == "" && errs[c] != "" {
			report.FirstError = errs[c]
		}
	}
	if report.Duration > 0 {
		report.QPS = float64(report.Requests-report.Errors-report.Deadline504) / report.Duration.Seconds()
	}
	ok := latencies[:0]
	for i, l := range latencies {
		if report.Responses[i] != nil {
			ok = append(ok, l)
			if v := versions[i]; v > 0 {
				if report.MinVersion == 0 || v < report.MinVersion {
					report.MinVersion = v
				}
				if v > report.MaxVersion {
					report.MaxVersion = v
				}
			}
		}
	}
	if len(ok) > 0 {
		sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
		report.P50 = ok[int(0.5*float64(len(ok)-1)+0.5)]
		report.P99 = ok[int(0.99*float64(len(ok)-1)+0.5)]
	}
	return report
}

// maxRetryAfter caps how long a 429's Retry-After hint is honored. The
// server's hint is advice, not a contract: a misbehaving (or malicious)
// server answering "Retry-After: 100000" must not wedge a load-gen client
// for a day.
const maxRetryAfter = time.Second

// attempt is the outcome of one postPredict request (after 429 retries and
// connection-failure reconnects).
type attempt struct {
	labels     []int32
	latency    time.Duration
	retries    int
	reconnects int
	version    uint64
	degraded   bool
	deadline   bool // the server answered 504: deadline shed, not an error
	err        error
}

// Reconnect budget: a connection-refused/reset request is retried every
// reconnectPause up to maxReconnects times (~10s total) — long enough to
// ride out a replica restart, bounded so a dead server still fails the run.
const (
	maxReconnects  = 40
	reconnectPause = 250 * time.Millisecond
)

// isConnError reports whether err is a transport-level connection failure
// (refused, reset, or torn mid-exchange) — the signature of a server
// restarting, as opposed to a protocol or payload error.
func isConnError(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}

// postPredict sends one /predict request, retrying 429s after the server's
// Retry-After hint (capped at maxRetryAfter, cancellable through ctx) and
// connection failures after reconnectPause (up to maxReconnects — a
// restarting replica counts as a reconnect, not an error).
func postPredict(ctx context.Context, client *http.Client, baseURL string, e slide.BatchEntry, opts LoadOptions) attempt {
	lr := loadReq{Indices: e.Indices, Values: e.Values, K: e.K}
	if opts.Deadline > 0 {
		lr.DeadlineMS = opts.Deadline.Milliseconds()
	}
	body, err := json.Marshal(lr)
	if err != nil {
		return attempt{err: err}
	}
	out := attempt{}
	for {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/predict", bytes.NewReader(body))
		if err != nil {
			out.err = err
			return out
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if isConnError(err) && out.reconnects < maxReconnects && ctx.Err() == nil {
				out.reconnects++
				select {
				case <-time.After(reconnectPause):
					continue
				case <-ctx.Done():
					out.err = ctx.Err()
					return out
				}
			}
			out.err = err
			return out
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter := time.Millisecond
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					retryAfter = min(time.Duration(secs)*time.Second, maxRetryAfter)
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out.retries++
			select {
			case <-time.After(retryAfter):
				continue
			case <-ctx.Done():
				out.err = ctx.Err()
				return out
			}
		}
		payload, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			// Torn mid-body by a restarting server: same reconnect treatment
			// as a refused dial (the request is re-sent whole).
			if isConnError(readErr) && out.reconnects < maxReconnects && ctx.Err() == nil {
				out.reconnects++
				select {
				case <-time.After(reconnectPause):
					continue
				case <-ctx.Done():
					out.err = ctx.Err()
					return out
				}
			}
			out.err = readErr
			return out
		}
		if resp.StatusCode == http.StatusGatewayTimeout {
			out.deadline = true
			return out
		}
		if resp.StatusCode != http.StatusOK {
			out.err = fmt.Errorf("status %d: %s", resp.StatusCode, payload)
			return out
		}
		var pr loadResp
		if err := json.Unmarshal(payload, &pr); err != nil {
			out.err = err
			return out
		}
		out.labels = pr.Labels
		out.latency = time.Since(start)
		out.degraded = pr.Degraded
		out.version = pr.Version
		return out
	}
}
