package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/slide"
)

// latencyWindow is the sliding-window size, in requests, of the p50/p99
// latency reservoir.
const latencyWindow = 4096

// ErrOverloaded is returned by SubmitMany when the admission queue is full:
// the request was shed without queuing. The HTTP layer maps it to
// 429 Too Many Requests with a Retry-After hint. Shedding at admission
// keeps overload latency flat — a request is either queued and served, or
// rejected in microseconds.
var ErrOverloaded = errors.New("serving: admission queue full")

// ErrClosed is returned by SubmitMany after Close.
var ErrClosed = errors.New("serving: batcher closed")

// ErrInvalidEntry is returned by SubmitMany for an entry that can never be
// served regardless of snapshot (non-positive k, mismatched
// indices/values). Rejecting at admission keeps a malformed entry from
// poisoning the coalesced batch it would have flushed with.
var ErrInvalidEntry = errors.New("serving: invalid batch entry")

// ErrSnapshotSkew is returned for a request admitted under one snapshot
// whose indices are invalid for the (smaller) snapshot that was current by
// flush time. Rare — it requires a hot-swap to a model with a narrower
// feature space mid-flight — and retryable: revalidating against the new
// current snapshot gives the client a definitive 400 or a served request.
var ErrSnapshotSkew = errors.New("serving: snapshot changed between admission and flush")

// ErrDeadline is returned for a request whose context deadline cannot be
// met: already expired at admission, infeasible given the current service
// -time estimate, or passed by the time its batch flushed. The HTTP layer
// maps it to 504 Gateway Timeout. Rejecting doomed work early keeps
// capacity for requests that can still make their deadlines.
var ErrDeadline = errors.New("serving: request deadline exceeded")

// Config parameterizes a Batcher. The zero value selects the defaults.
type Config struct {
	// MaxBatch is the coalescing limit: a worker flushes as soon as its
	// batch reaches this size (default 32).
	MaxBatch int
	// MaxWait bounds how long a partial batch waits for company after a
	// worker picks up its first request before flushing anyway. Zero
	// selects the 2ms default; negative disables waiting entirely (a
	// worker flushes whatever it greedily drained).
	MaxWait time.Duration
	// QueueCap bounds the admission queue; a full queue sheds with
	// ErrOverloaded (default 8×MaxBatch).
	QueueCap int
	// Workers is the flush worker pool size (default GOMAXPROCS). Each
	// worker runs one fused PredictEntries at a time; concurrency across
	// workers is the pipeline's parallelism.
	Workers int
	// Degrade is the tiered-degradation policy (see DegradePolicy). The
	// zero value disables degradation: the pipeline serves exact until it
	// sheds.
	Degrade DegradePolicy
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8 * c.MaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Degrade.enabled() {
		if c.Degrade.LowWater <= 0 {
			c.Degrade.LowWater = c.Degrade.HighWater / 2
		}
		if c.Degrade.After <= 0 {
			c.Degrade.After = 3
		}
	}
	return c
}

// Result is one served request: the top-k labels and the version of the
// snapshot that produced them. Degraded marks a response served through the
// sampled (LSH) path under overload rather than the exact one.
type Result struct {
	Labels   []int32
	Version  uint64
	Degraded bool
}

// pending is one queued request. The worker publishes labels/err/version
// and servedAt and then closes done; the submitter reads them only after
// done closes, so those fields need no further synchronization. state is
// the claim arbiter between the flushing worker and a submitter giving up
// (context cancelled): exactly one side wins the CAS from pendingState, so
// a request is counted served or cancelled, never both.
type pending struct {
	entry    slide.BatchEntry
	enqueued time.Time
	deadline time.Time    // zero = none; captured from the SubmitMany context
	state    atomic.Int32 // pendingState / claimedState / canceledState
	done     chan struct{}
	servedAt time.Time
	labels   []int32
	version  uint64
	degraded bool
	err      error
}

const (
	pendingState  = iota // queued, unclaimed
	claimedState         // a flush took ownership; done will close
	canceledState        // the submitter gave up first; flushes skip it
)

// Batcher coalesces concurrent single-sample predict requests into fused
// batch calls on the current snapshot. See the package documentation for
// the flush policy and the backpressure contract.
type Batcher struct {
	cfg   Config
	mgr   *SnapshotManager
	queue chan *pending

	// mu guards closed against concurrent admissions: enqueue holds the
	// read side across the non-blocking send, Close takes the write side
	// before closing the channel.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	admitted  atomic.Uint64
	served    atomic.Uint64
	failed    atomic.Uint64
	shed      atomic.Uint64
	canceled  atomic.Uint64
	deadlined atomic.Uint64
	degServed atomic.Uint64
	batches   atomic.Uint64
	sizes     *metrics.SizeHistogram
	latency   *metrics.Reservoir

	// svcEWMA estimates flush service time (ns, exponentially weighted):
	// the floor below which a remaining deadline budget is infeasible.
	svcEWMA atomic.Int64
	degrade degradeState
}

// NewBatcher starts a batcher serving snapshots from mgr. Close releases
// its workers.
func NewBatcher(mgr *SnapshotManager, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:     cfg,
		mgr:     mgr,
		queue:   make(chan *pending, cfg.QueueCap),
		sizes:   metrics.NewSizeHistogram(cfg.MaxBatch),
		latency: metrics.NewReservoir(latencyWindow),
	}
	b.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go b.worker()
	}
	return b
}

// Submit queues one request and blocks until it is served or ctx is done:
// it is SubmitMany of one entry, with the same errors and deadline handling.
func (b *Batcher) Submit(ctx context.Context, entry slide.BatchEntry) (Result, error) {
	out, err := b.SubmitMany(ctx, []slide.BatchEntry{entry})
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// SubmitMany queues a client batch as individual entries (they may coalesce
// with other traffic or split across flushes) and blocks until every entry
// is served. Results are index-aligned with entries. Entries are admitted in
// chunks no larger than half the queue, awaiting each chunk before admitting
// the next, so a batch larger than the queue flows through in waves. Within
// a chunk admission is all-or-nothing: a full queue cancels the chunk's
// queued entries and returns ErrOverloaded; after Close it is ErrClosed.
//
// A ctx deadline travels with every entry. A call whose budget is already
// below the service-time estimate is refused with ErrDeadline before any
// entry is admitted; a queued entry whose deadline passes before its flush
// fails with ErrDeadline without backend work. Every entry a passed
// deadline leaves unserved counts as deadlined; on any other ctx end the
// workers skip the abandoned entries and ctx.Err() is returned.
func (b *Batcher) SubmitMany(ctx context.Context, entries []slide.BatchEntry) ([]Result, error) {
	var deadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d
		if budget, est := time.Until(d), time.Duration(b.svcEWMA.Load()); budget <= est {
			b.deadlined.Add(uint64(len(entries)))
			return nil, fmt.Errorf("serving: %v budget, service estimate %v: %w", budget, est, ErrDeadline)
		}
	}
	chunk := max(1, b.cfg.QueueCap/2)
	out := make([]Result, len(entries))
	for lo := 0; lo < len(entries); lo += chunk {
		hi := min(lo+chunk, len(entries))
		items := make([]*pending, hi-lo)
		for i, e := range entries[lo:hi] {
			item := &pending{entry: e, enqueued: time.Now(), deadline: deadline, done: make(chan struct{})}
			if err := b.enqueue(item); err != nil {
				b.abandon(items[:i], &b.canceled)
				return nil, err
			}
			items[i] = item
		}
		for i, item := range items {
			r, err := b.await(ctx, item)
			if err != nil {
				// await accounted for this item; the rest go unserved.
				left := &b.canceled
				if errors.Is(err, ErrDeadline) {
					left = &b.deadlined
					left.Add(uint64(len(entries) - hi)) // never admitted
				}
				b.abandon(items[i+1:], left)
				return nil, err
			}
			out[lo+i] = r
		}
	}
	return out, nil
}

// abandon marks still-pending items cancelled and counts each one it wins
// in counter; items a flush already claimed are left alone (they were
// served, or failed, and counted as such).
func (b *Batcher) abandon(items []*pending, counter *atomic.Uint64) {
	for _, q := range items {
		if b.cancel(q) {
			counter.Add(1)
		}
	}
}

func (b *Batcher) enqueue(item *pending) error {
	// Snapshot-independent validation happens before the entry can share a
	// flush with anyone: PredictEntries is all-or-nothing, so a malformed
	// entry reaching a flush would error every request coalesced with it.
	// (Snapshot-dependent validation — index bounds — is the flush-time
	// checkFeatures guard.)
	if item.entry.K <= 0 {
		return fmt.Errorf("serving: entry has non-positive k %d: %w", item.entry.K, ErrInvalidEntry)
	}
	if len(item.entry.Indices) != len(item.entry.Values) {
		return fmt.Errorf("serving: entry has %d indices but %d values: %w",
			len(item.entry.Indices), len(item.entry.Values), ErrInvalidEntry)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	select {
	case b.queue <- item:
		b.admitted.Add(1)
		return nil
	default:
		b.shed.Add(1)
		return ErrOverloaded
	}
}

func (b *Batcher) await(ctx context.Context, item *pending) (Result, error) {
	select {
	case <-item.done:
		return b.finish(item)
	case <-ctx.Done():
		if !b.cancel(item) {
			// A flush claimed the item first: it is being (or was) served
			// and counted as such; the submitter stopped listening, but the
			// result is moments away — return it rather than inventing a
			// cancellation the stats would disagree with.
			<-item.done
			return b.finish(item)
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The deadline, not the caller, killed the request: report (and
			// count) it as a deadline miss, not a cancellation.
			b.deadlined.Add(1)
			return Result{}, fmt.Errorf("serving: deadline passed while queued: %w", ErrDeadline)
		}
		b.canceled.Add(1)
		return Result{}, ctx.Err()
	}
}

// cancel tries to win the item from any future flush; it reports whether
// the cancellation took effect (false = a flush already claimed the item).
// The caller accounts the outcome (canceled vs deadline-missed).
func (b *Batcher) cancel(item *pending) bool {
	return item.state.CompareAndSwap(pendingState, canceledState)
}

// finish reads a completed item (done closed by the worker). Latency is
// the enqueue-to-flush-completion delta the worker stamped, independent of
// when the submitter got around to collecting the result (SubmitMany
// collects in index order).
func (b *Batcher) finish(item *pending) (Result, error) {
	if item.err != nil {
		return Result{}, item.err
	}
	b.latency.Observe(item.servedAt.Sub(item.enqueued))
	return Result{Labels: item.labels, Version: item.version, Degraded: item.degraded}, nil
}

// Close stops admitting (SubmitMany returns ErrClosed), lets the workers drain
// everything already queued, and waits for them to exit. Safe to call more
// than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()
	b.wg.Wait()
}

// worker pulls the next request, coalesces up to MaxBatch-1 more — first
// greedily from what is already queued, then waiting up to MaxWait — and
// flushes the batch through one fused call on the current snapshot.
func (b *Batcher) worker() {
	defer b.wg.Done()
	batch := make([]*pending, 0, b.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		// Greedy drain: whatever is already waiting coalesces for free.
	greedy:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case item, ok := <-b.queue:
				if !ok {
					b.flush(batch)
					return
				}
				batch = append(batch, item)
			default:
				break greedy
			}
		}
		// Partial batch: wait up to MaxWait (measured from now — the
		// deadline bounds added latency, not total queue time) for more.
		if len(batch) < b.cfg.MaxBatch && b.cfg.MaxWait > 0 {
			timer.Reset(b.cfg.MaxWait)
		wait:
			for len(batch) < b.cfg.MaxBatch {
				select {
				case item, ok := <-b.queue:
					if !ok {
						timer.Stop()
						b.flush(batch)
						return
					}
					batch = append(batch, item)
				case <-timer.C:
					break wait
				}
			}
			timer.Stop()
		}
		b.flush(batch)
	}
}

// flush serves one coalesced batch from a single snapshot capture: exact
// fused prediction normally, per-entry sampled prediction when the
// degradation policy says the pipeline is in degraded mode (still one
// snapshot for the whole batch — degraded responses obey the same
// no-wrong-version guarantee). Requests whose deadline passed while queued
// fail with ErrDeadline before consuming backend work.
func (b *Batcher) flush(batch []*pending) {
	pred := b.mgr.Current() // one snapshot for the whole batch
	degraded := b.degrade.observe(len(b.queue), b.cfg.QueueCap, b.cfg.Degrade) && pred.Sampled()
	live := make([]*pending, 0, len(batch))
	entries := make([]slide.BatchEntry, 0, len(batch))
	now := time.Now()
	for _, item := range batch {
		// Claim the item; a submitter that cancelled first keeps it.
		if !item.state.CompareAndSwap(pendingState, claimedState) {
			continue
		}
		if !item.deadline.IsZero() && now.After(item.deadline) {
			item.err = fmt.Errorf("serving: deadline passed %v before flush: %w",
				now.Sub(item.deadline), ErrDeadline)
			b.deadlined.Add(1) // counted before the submitter can see the outcome, as served is
			close(item.done)
			continue
		}
		// Front ends validate against the snapshot current at admission; a
		// hot-swap before the flush may have shrunk the model. Fail skewed
		// requests instead of serving the batch into a crash (out-of-range
		// index → panic deep in the forward pass) or a silent k clamp (the
		// front end promises never to truncate an accepted k).
		if e := checkSkew(item.entry, pred); e != nil {
			item.err = e
			b.failed.Add(1)
			close(item.done)
			continue
		}
		live = append(live, item)
		entries = append(entries, item.entry)
	}
	if len(live) == 0 {
		return
	}
	// Counted before the flush releases a submitter, as served is: a caller
	// whose Submit has returned sees its own batch in Stats.
	b.batches.Add(1)
	b.sizes.Observe(len(live))
	version := pred.Version()
	start := time.Now()
	if degraded {
		b.flushSampled(pred, live, version)
	} else {
		b.flushExact(pred, live, entries, version)
	}
	b.observeService(time.Since(start))
}

// flushExact is the normal path: one fused PredictEntries for the batch.
func (b *Batcher) flushExact(pred Predictor, live []*pending, entries []slide.BatchEntry, version uint64) {
	out, err := predictEntries(pred, entries)
	now := time.Now()
	if err != nil {
		b.failed.Add(uint64(len(live)))
	} else {
		b.served.Add(uint64(len(live)))
	}
	for i, item := range live {
		if err != nil {
			item.err = err
		} else {
			item.labels = out[i]
			item.version = version
			item.servedAt = now
		}
		close(item.done)
	}
}

// flushSampled is the degraded path: per-entry LSH-sampled prediction, each
// entry succeeding or failing on its own.
func (b *Batcher) flushSampled(pred Predictor, live []*pending, version uint64) {
	for _, item := range live {
		labels, err := predictSampled(pred, item.entry)
		if err != nil {
			item.err = err
			b.failed.Add(1)
		} else {
			item.labels = labels
			item.version = version
			item.servedAt = time.Now()
			item.degraded = true
			b.served.Add(1)
			b.degServed.Add(1)
		}
		close(item.done)
	}
}

// observeService folds one flush's service time into the EWMA estimate
// (weight 1/4 to the new sample — responsive but burst-tolerant).
func (b *Batcher) observeService(d time.Duration) {
	for {
		old := b.svcEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if b.svcEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// predictEntries runs the backend with panic containment: a panicking
// Predictor implementation must fail its batch (every submitter gets the
// error), not kill the worker — a dead worker would strand the claimed
// items' done channels, hang every coalesced submitter, and deadlock
// Close on wg.Wait.
func predictEntries(pred Predictor, entries []slide.BatchEntry) (out [][]int32, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serving: predictor panicked: %v", r)
		}
	}()
	return pred.PredictEntries(entries)
}

// predictSampled is the one per-entry sampled call: the degraded flush path
// and the front end's sampled requests both run it, with the same panic
// containment as predictEntries.
func predictSampled(pred Predictor, e slide.BatchEntry) (out []int32, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("serving: predictor panicked: %v", r)
		}
	}()
	return pred.PredictSampled(e.Indices, e.Values, e.K)
}

// checkSkew guards against admission/flush snapshot skew: every index and
// the requested k must be valid for the snapshot actually serving the
// batch, not just the one the front end validated against. The rescan is
// deliberate, not redundant: only the flush knows which snapshot actually
// serves the batch (an enqueue-time version stamp could itself be newer
// than what the front end validated against), and its O(nnz) cost is noise
// next to the forward pass it protects.
func checkSkew(e slide.BatchEntry, pred Predictor) error {
	features := int32(pred.NumFeatures())
	for _, idx := range e.Indices {
		if idx < 0 || idx >= features {
			return fmt.Errorf("serving: index %d out of range for snapshot %d (features %d): %w",
				idx, pred.Version(), features, ErrSnapshotSkew)
		}
	}
	if e.K > pred.NumLabels() {
		return fmt.Errorf("serving: k %d exceeds snapshot %d label space %d: %w",
			e.K, pred.Version(), pred.NumLabels(), ErrSnapshotSkew)
	}
	return nil
}

// Stats is a point-in-time snapshot of the pipeline's counters.
type Stats struct {
	// QueueDepth is the current admission-queue occupancy; QueueCap its
	// bound.
	QueueDepth, QueueCap int
	// Workers, MaxBatch and MaxWait echo the configuration.
	Workers, MaxBatch int
	MaxWait           time.Duration
	// Admitted counts requests accepted into the queue; Served those
	// answered successfully; Failed those answered with an error (backend
	// failure or snapshot skew); Shed those rejected with ErrOverloaded;
	// Canceled those whose submitter gave up before the flush reached them.
	Admitted, Served, Failed, Shed, Canceled uint64
	// Deadlined counts requests rejected or failed with ErrDeadline;
	// DegradedServed the subset of Served answered through the sampled
	// path. DegradedMode reports whether the pipeline is currently
	// degraded; DegradeSwitches counts mode transitions in both directions.
	Deadlined, DegradedServed uint64
	DegradedMode              bool
	DegradeSwitches           uint64
	// Batches counts flushes; BatchSizes[i] counts flushes of size i+1;
	// MeanBatch is the mean flush size.
	Batches    uint64
	BatchSizes []uint64
	MeanBatch  float64
	// P50/P99 are request latencies (enqueue to served) over the sliding
	// window.
	P50, P99 time.Duration
}

// Stats returns current counters. Safe for concurrent use.
func (b *Batcher) Stats() Stats {
	qs := b.latency.Quantiles(0.5, 0.99)
	degradedMode, switches := b.degrade.mode()
	return Stats{
		Deadlined:       b.deadlined.Load(),
		DegradedServed:  b.degServed.Load(),
		DegradedMode:    degradedMode,
		DegradeSwitches: switches,
		QueueDepth:      len(b.queue),
		QueueCap:        b.cfg.QueueCap,
		Workers:         b.cfg.Workers,
		MaxBatch:        b.cfg.MaxBatch,
		MaxWait:         b.cfg.MaxWait,
		Admitted:        b.admitted.Load(),
		Served:          b.served.Load(),
		Failed:          b.failed.Load(),
		Shed:            b.shed.Load(),
		Canceled:        b.canceled.Load(),
		Batches:         b.batches.Load(),
		BatchSizes:      b.sizes.Counts(),
		MeanBatch:       b.sizes.Mean(),
		P50:             qs[0],
		P99:             qs[1],
	}
}
