package replicate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
	"github.com/slide-cpu/slide/slide"
)

// maxMessageBytes bounds one replication response body read into memory.
// Each section is already bounded by the framing; this bounds the count.
const maxMessageBytes = 16 << 30

// NewServed returns what a replica serves for a predictor OnSwap hands
// over: the same slide.Predictor a trainer-local snapshot is, under the hub
// version, so a replica answers through exactly the code the trainer does.
func NewServed(p *network.Predictor, version uint64) *slide.Predictor {
	return slide.FromRaw(p, version)
}

// Stats is the client's atomic observability surface: safe to read from
// any goroutine while Run is live. Versions are hub replication versions.
type Stats struct {
	// Version is the replica's current applied version (0 until the first
	// base sync).
	Version atomic.Uint64
	// TrainerVersion is the newest version the trainer has advertised
	// (X-Replicate-Version on any response).
	TrainerVersion atomic.Uint64
	// DeltasApplied counts deltas successfully applied since start.
	DeltasApplied atomic.Uint64
	// Resyncs counts full base re-syncs after the initial one (gap,
	// corruption, or config mismatch).
	Resyncs atomic.Uint64
	// Corrupt counts messages rejected for CRC/parse/config failures.
	Corrupt atomic.Uint64
	// Quarantined counts messages rejected for non-finite weights — a
	// poisoned delta or base refused at admission. Handled like corruption
	// (re-sync, served predictor untouched) but counted apart so operators
	// can tell numerical poison from wire damage.
	Quarantined atomic.Uint64
	// Connected is 1 while the stream is healthy (last fetch succeeded).
	Connected atomic.Uint64
	// BackoffMS is the re-sync backoff the client is currently waiting (or
	// last waited), in milliseconds; 0 after a healthy sync. Exposed as
	// resync_backoff_ms in replica /stats.
	BackoffMS atomic.Uint64
}

// Client follows one trainer's replication stream: sync a base, long-poll
// deltas, apply each copy-on-write, hand every new predictor to OnSwap.
// On any gap (the trainer moved past the replay ring, or restarted),
// corruption (CRC or parse failure), or config-shape mismatch the client
// discards nothing it serves — it keeps the current predictor, counts the
// event, and re-syncs from a fresh base.
type Client struct {
	// BaseURL is the trainer's root, e.g. "http://host:8080".
	BaseURL string
	// HTTP is the client to use; http.DefaultClient when nil. Its Timeout
	// must exceed PollTimeout or long-polls will be cut short.
	HTTP *http.Client
	// OnSwap receives every newly applied predictor and its version —
	// the hook that swaps it into the serving pipeline.
	OnSwap func(p *network.Predictor, version uint64)
	// PollTimeout caps one delta long-poll round trip (default 30s).
	PollTimeout time.Duration
	// ResyncBackoff is the initial pause before retrying after a failed
	// sync (default 250ms). Consecutive failures double it up to
	// MaxResyncBackoff; a successful sync resets it.
	ResyncBackoff time.Duration
	// MaxResyncBackoff caps the exponential backoff (default 8s).
	MaxResyncBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter (so a restarted
	// replica fleet doesn't retry in lockstep, yet a given seed replays the
	// exact same schedule). Wire it to the replica's -seed flag.
	JitterSeed uint64
	// RequireQuantized, when 8, refuses base snapshots that are not int8
	// quantized — a replica provisioned for an int8 memory budget must not
	// silently inflate to f32 because the hub was started without
	// -quantize. 0 accepts whatever the hub streams; Run refuses any other
	// value before its first fetch.
	// Deltas are checked structurally by ApplyDelta (a width flip between
	// base and delta is corruption either way).
	RequireQuantized int

	// Stats is updated throughout Run.
	Stats Stats

	cur     *network.Predictor
	version uint64
	// failures counts consecutive failed syncs, driving the backoff
	// exponent. Only touched from the Run goroutine.
	failures int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// splitmix64 is the standard 64-bit mix, here hashing (seed, attempt) into
// deterministic backoff jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff sleeps the capped exponential re-sync pause: base << failures,
// clamped to the max, plus deterministic jitter in [0, d/4) derived from
// (JitterSeed, attempt). Replaces the old tight fixed-interval retry —
// a hub that stays down sees a decaying probe rate, and a seeded fleet
// desynchronizes its retries without losing reproducibility.
func (c *Client) backoff(ctx context.Context) {
	base := c.ResyncBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	maxB := c.MaxResyncBackoff
	if maxB <= 0 {
		maxB = 8 * time.Second
	}
	if maxB < base {
		maxB = base
	}
	d := base
	for i := 0; i < c.failures && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	if q := d / 4; q > 0 {
		d += time.Duration(splitmix64(c.JitterSeed+uint64(c.failures)) % uint64(q))
	}
	c.failures++
	c.Stats.BackoffMS.Store(uint64(d.Milliseconds()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// backoffReset clears the exponential schedule after a healthy sync.
func (c *Client) backoffReset() {
	c.failures = 0
	c.Stats.BackoffMS.Store(0)
}

// Run follows the stream until ctx is done and returns ctx.Err() — every
// failure inside is handled by re-syncing. The one exception is a
// RequireQuantized other than 0 or 8, which no base could satisfy: Run
// returns that error at once, before any fetch.
func (c *Client) Run(ctx context.Context) error {
	if c.RequireQuantized != 0 && c.RequireQuantized != 8 {
		return fmt.Errorf("replicate: RequireQuantized must be 0 or 8 (got %d)", c.RequireQuantized)
	}
	for ctx.Err() == nil {
		if err := c.syncBase(ctx); err != nil {
			c.Stats.Connected.Store(0)
			c.backoff(ctx)
			continue
		}
		c.follow(ctx)
	}
	return ctx.Err()
}

// fetch GETs path, recording trainer version and connectivity. The caller
// owns the response body.
func (c *Client) fetch(ctx context.Context, path string) (*http.Response, error) {
	if err := faultinject.Hit(faultinject.PointReplicateRecv); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		c.Stats.Connected.Store(0)
		return nil, err
	}
	if v, perr := strconv.ParseUint(resp.Header.Get("X-Replicate-Version"), 10, 64); perr == nil {
		c.Stats.TrainerVersion.Store(v)
	}
	c.Stats.Connected.Store(1)
	return resp, nil
}

// syncBase fetches and installs a full base snapshot.
func (c *Client) syncBase(ctx context.Context) error {
	resp, err := c.fetch(ctx, "/replicate/base")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replicate: base fetch: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMessageBytes))
	if err != nil {
		return err
	}
	base, _, err := ReadMessage(bytes.NewReader(body))
	if err == nil && base == nil {
		err = fmt.Errorf("replicate: base endpoint returned a non-base message")
	}
	if err != nil {
		c.Stats.Corrupt.Add(1)
		return err
	}
	if c.RequireQuantized != 0 && base.Parts.QBits != c.RequireQuantized {
		c.Stats.Corrupt.Add(1)
		return fmt.Errorf("replicate: base is int%d-quantized (0 = f32), replica requires int%d",
			base.Parts.QBits, c.RequireQuantized)
	}
	p, err := network.NewPredictorFromBase(base.Parts)
	if err != nil {
		c.Stats.Corrupt.Add(1)
		return err
	}
	// Admission validation: a poisoned base never reaches OnSwap — the
	// replica keeps whatever it serves and retries (with backoff) until the
	// trainer publishes a clean version.
	if err := p.CheckFinite(); err != nil {
		c.Stats.Quarantined.Add(1)
		return err
	}
	c.cur, c.version = p, base.Version
	c.Stats.Version.Store(base.Version)
	c.backoffReset()
	if c.OnSwap != nil {
		c.OnSwap(p, base.Version)
	}
	return nil
}

// follow long-polls the delta stream, applying until something forces a
// re-sync (it returns) or ctx ends.
func (c *Client) follow(ctx context.Context) {
	for ctx.Err() == nil {
		poll := c.PollTimeout
		if poll <= 0 {
			poll = 30 * time.Second
		}
		pctx, cancel := context.WithTimeout(ctx, poll)
		resync, err := c.pollOnce(pctx)
		cancel()
		if resync {
			c.Stats.Resyncs.Add(1)
			return
		}
		if err == nil {
			c.backoffReset()
		}
		if err != nil && ctx.Err() == nil {
			// Transient (timeout, connection refused): poll again after a
			// beat; the served version stays up the whole time.
			if pctx.Err() == nil {
				c.backoff(ctx)
			}
		}
	}
}

// pollOnce runs one delta long-poll. It reports whether the client must
// re-sync from a base (gap, corruption, config mismatch).
func (c *Client) pollOnce(ctx context.Context) (resync bool, err error) {
	resp, err := c.fetch(ctx, "/replicate/deltas?from="+strconv.FormatUint(c.version, 10))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return false, nil
	case http.StatusGone:
		return true, nil
	default:
		return false, fmt.Errorf("replicate: delta fetch: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMessageBytes))
	if err != nil {
		// Torn mid-body (trainer died, injected cut): treat as corruption —
		// the partial prefix may parse, but the stream is untrustworthy.
		c.Stats.Corrupt.Add(1)
		return true, err
	}
	r := bytes.NewReader(body)
	for {
		_, delta, err := ReadMessage(r)
		if err == io.EOF {
			return false, nil
		}
		if err != nil || delta == nil {
			c.Stats.Corrupt.Add(1)
			return true, err
		}
		if delta.FromVersion != c.version {
			// Contiguity break (e.g. replica at v5 handed v7→v8).
			return true, nil
		}
		if delta.ConfigCRC != c.cur.ConfigChecksum() {
			// Shape changed under us — the trainer restarted with a
			// different model. Only a fresh base can help.
			c.Stats.Corrupt.Add(1)
			return true, nil
		}
		p, err := c.cur.ApplyDelta(delta.Parts)
		if err != nil {
			// ApplyDelta validates the touched rows for NaN/Inf; a poisoned
			// delta is quarantined — same recovery as corruption (re-sync,
			// the served predictor never tears), counted apart.
			if errors.Is(err, network.ErrNonFinite) {
				c.Stats.Quarantined.Add(1)
			} else {
				c.Stats.Corrupt.Add(1)
			}
			return true, err
		}
		c.cur, c.version = p, delta.ToVersion
		c.Stats.Version.Store(delta.ToVersion)
		c.Stats.DeltasApplied.Add(1)
		if c.OnSwap != nil {
			c.OnSwap(p, delta.ToVersion)
		}
	}
}
