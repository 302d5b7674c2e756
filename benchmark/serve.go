package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slide-cpu/slide/internal/serving"
	"github.com/slide-cpu/slide/slide"
)

const (
	topK           = 5
	batchQueries   = 32  // queries per /predict/batch request
	servePretrain  = 100 // optimizer steps a serving fixture trains before it is snapshotted
	sampledChecked = 64  // sampled-path queries whose ranking is checked against exact scores
)

// httpServer is one loopback listener serving a mux until closed.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, drops its connections and waits for Serve to
// return.
func (s *httpServer) close() {
	_ = s.srv.Close()
	<-s.done
}

type serveInstance struct {
	f    *fixture
	pred *slide.Predictor
	srv  *serving.Server
	http *httpServer
}

func (in *serveInstance) close() {
	in.http.close()
	in.srv.Close()
}

// buildServing is the serving fixture's whole set-up: generate amazon-s,
// build and pre-train the model, snapshot it, start a default-configured
// serving.Server behind a loopback listener.
func buildServing(c *runConfig) (*serveInstance, error) {
	f, err := amazonS(c.seed, c.smoke)
	if err != nil {
		return nil, err
	}
	m, err := f.newModel(c.seed, c.procs, 0)
	if err != nil {
		return nil, err
	}
	if err := f.pretrain(m, c.pretrainSteps(servePretrain)); err != nil {
		return nil, err
	}
	in := &serveInstance{f: f, pred: m.Snapshot()}
	if err := f.assertTrained(in.pred, c.smoke); err != nil {
		return nil, err
	}
	in.srv = serving.NewServer(in.pred, serving.ServerConfig{})
	if in.http, err = serveLoopback(in.srv.Mux()); err != nil {
		in.srv.Close()
		return nil, err
	}
	return in, nil
}

// request is one pre-encoded HTTP request and the test samples it asks
// about, in order.
type request struct {
	id      int // position in the request list
	body    []byte
	samples []int
}

type wireSample struct {
	Indices []int32   `json:"indices"`
	Values  []float32 `json:"values"`
}

// buildRequests encodes the test split as requests of per queries each, in
// an order drawn from the seed. Bodies are encoded once, outside the timed
// window: the clients share the box with the server they load.
func buildRequests(test *slide.Dataset, per int, sampled bool, seed uint64) ([]request, error) {
	order := rand.New(rand.NewPCG(seed, 0x5e7e)).Perm(test.Len())
	var reqs []request
	for lo := 0; lo+per <= len(order); lo += per {
		ids := order[lo : lo+per]
		ws := make([]wireSample, per)
		for i, id := range ids {
			s := test.Sample(id)
			ws[i] = wireSample{Indices: s.Indices, Values: s.Values}
		}
		var body []byte
		var err error
		if per == 1 {
			body, err = json.Marshal(struct {
				wireSample
				Sampled bool `json:"sampled,omitempty"`
			}{ws[0], sampled})
		} else {
			body, err = json.Marshal(struct {
				Samples []wireSample `json:"samples"`
				Sampled bool         `json:"sampled,omitempty"`
			}{ws, sampled})
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{id: len(reqs), body: body, samples: ids})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("test split of %d samples is smaller than one request of %d", test.Len(), per)
	}
	return reqs, nil
}

// reply is the part of both response shapes the client reads.
type reply struct {
	labels  [][]int32
	version uint64
	sampled bool
}

func decodeReply(body []byte, batch bool) (reply, error) {
	if batch {
		var r struct {
			Labels  [][]int32 `json:"labels"`
			Sampled bool      `json:"sampled"`
			Version uint64    `json:"version"`
		}
		err := json.Unmarshal(body, &r)
		return reply{r.Labels, r.Version, r.Sampled}, err
	}
	var r struct {
		Labels  []int32 `json:"labels"`
		Sampled bool    `json:"sampled"`
		Version uint64  `json:"version"`
	}
	err := json.Unmarshal(body, &r)
	return reply{[][]int32{r.Labels}, r.Version, r.Sampled}, err
}

// load is one closed-loop client population: clients goroutines, each
// sending its next request only after the previous reply, over at most
// that many connections.
type load struct {
	url     string
	batch   bool
	reqs    []request
	clients int
	// verify judges one 200 reply: it returns false when the labels are
	// wrong. It is called from client goroutines.
	verify func(rq *request, rp reply) bool
	truth  func(sample int) []int32
	tr     *tracer
	// client is made by the first run and kept, so a warm-up run leaves the
	// measured one its connections; close drops them.
	client *http.Client
}

func (l *load) close() {
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
}

type loadWindow struct {
	ops       []op    // ordered by completion
	wall      float64 // seconds from the first send to the last reply
	attempted int64
	failed    int64 // transport error, non-200, undecodable or wrong labels
	non200    int64
	hits      int64 // queries whose top-1 label is a true label
	queries   int64
}

// run sends requests for the given seconds and returns what completed.
// next is the shared request cursor, so successive windows continue
// through the request list.
func (l *load) run(seconds float64, next *atomic.Int64) *loadWindow {
	if l.client == nil {
		l.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: l.clients, MaxIdleConnsPerHost: l.clients,
		}}
	}
	client := l.client
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu  sync.Mutex
		win = &loadWindow{}
		wg  sync.WaitGroup
	)
	for cl := 0; cl < l.clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []op
			var attempted, failed, non200, hits, queries int64
			for time.Now().Before(deadline) {
				n := next.Add(1) - 1
				rq := &l.reqs[int(n)%len(l.reqs)]
				t0 := time.Now()
				root := l.tr.begin("client.request", -1, n)
				rt := l.tr.begin("http.Client.Post", root, n)
				resp, err := client.Post(l.url, "application/json", bytes.NewReader(rq.body))
				l.tr.end(rt)
				attempted++
				if err != nil {
					failed++
					l.tr.end(root)
					continue
				}
				rd := l.tr.begin("client.read+decode", root, n)
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				var rp reply
				if rerr == nil && resp.StatusCode == http.StatusOK {
					rp, rerr = decodeReply(body, l.batch)
				}
				t1 := time.Now()
				l.tr.end(rd)
				l.tr.end(root)
				switch {
				case resp.StatusCode != http.StatusOK:
					non200++
					failed++
					continue
				case rerr != nil || len(rp.labels) != len(rq.samples) || !l.verify(rq, rp):
					failed++
					continue
				}
				for i, s := range rq.samples {
					if hit(rp.labels[i], l.truth(s)) {
						hits++
					}
				}
				queries += int64(len(rq.samples))
				ops = append(ops, op{start: t0.Sub(start).Seconds(), end: t1.Sub(start).Seconds(), units: len(rq.samples)})
			}
			mu.Lock()
			win.ops = append(win.ops, ops...)
			win.attempted += attempted
			win.failed += failed
			win.non200 += non200
			win.hits += hits
			win.queries += queries
			mu.Unlock()
		}()
	}
	wg.Wait()
	win.wall = time.Since(start).Seconds()
	sort.Slice(win.ops, func(i, j int) bool { return win.ops[i].end < win.ops[j].end })
	return win
}

// measure is run for the given seconds in stretches of refEvery, with a
// reference slice in each gap while the clients are idle. The stretches are
// joined into one window whose timeline leaves the gaps out.
func (l *load) measure(seconds float64, next *atomic.Int64, ref *reference) *loadWindow {
	win := &loadWindow{}
	for win.wall < seconds {
		ref.due()
		w := l.run(min(refEvery.Seconds(), seconds-win.wall), next)
		for _, o := range w.ops {
			win.ops = append(win.ops, op{start: o.start + win.wall, end: o.end + win.wall, units: o.units})
		}
		win.wall += w.wall
		win.attempted += w.attempted
		win.failed += w.failed
		win.non200 += w.non200
		win.hits += w.hits
		win.queries += w.queries
	}
	return win
}

// exactLabels is PredictEntries' answer for every test sample on the
// serving snapshot — what every exact reply must equal, label for label.
func exactLabels(p serving.Predictor, test *slide.Dataset) ([][]int32, error) {
	out := make([][]int32, 0, test.Len())
	for lo := 0; lo < test.Len(); lo += batchQueries {
		entries := make([]slide.BatchEntry, min(batchQueries, test.Len()-lo))
		for i := range entries {
			s := test.Sample(lo + i)
			entries[i] = slide.BatchEntry{Indices: s.Indices, Values: s.Values, K: topK}
		}
		labels, err := p.PredictEntries(entries)
		if err != nil {
			return nil, err
		}
		out = append(out, labels...)
	}
	return out, nil
}

// sampledVerifier checks the sampled path, whose candidate set is drawn
// per call and so has no single right answer: labels must be distinct and
// in range, and for the first sampledChecked test samples they must be
// ordered by the snapshot's exact score.
func sampledVerifier(p *slide.Predictor, test *slide.Dataset) func(*request, reply) bool {
	scores := make([][]float32, min(sampledChecked, test.Len()))
	for i := range scores {
		s := test.Sample(i)
		scores[i] = make([]float32, p.NumLabels())
		p.Scores(s.Indices, s.Values, scores[i])
	}
	return func(rq *request, rp reply) bool {
		if !rp.sampled {
			return false
		}
		for i, labels := range rp.labels {
			if len(labels) == 0 || len(labels) > topK {
				return false
			}
			for j, y := range labels {
				if y < 0 || int(y) >= p.NumLabels() {
					return false
				}
				for _, z := range labels[:j] {
					if z == y {
						return false
					}
				}
			}
			if s := rq.samples[i]; s < len(scores) {
				for j := 1; j < len(labels); j++ {
					if scores[s][labels[j]] > scores[s][labels[j-1]] {
						return false
					}
				}
			}
		}
		return true
	}
}

func runServe(c *runConfig) (*result, error) {
	res := newResult(c)
	ref := c.reference(c.procs)
	in, setupS, err := repeatSetup(c, ref, func() (*serveInstance, error) { return buildServing(c) }, (*serveInstance).close)
	if err != nil {
		return nil, err
	}
	defer in.close()

	l := &load{clients: c.procs, truth: func(i int) []int32 { return in.f.test.Sample(i).Labels }}
	defer l.close()
	per := batchQueries
	if c.workload == "serve_single" {
		per, l.url = 1, in.http.url+"/predict"
	} else {
		l.batch, l.url = true, in.http.url+"/predict/batch"
	}
	sampled := c.workload == "serve_sampled"
	if l.reqs, err = buildRequests(in.f.test, per, sampled, c.seed); err != nil {
		return nil, err
	}
	if sampled {
		l.verify = sampledVerifier(in.pred, in.f.test)
	} else {
		want, err := exactLabels(in.pred, in.f.test)
		if err != nil {
			return nil, err
		}
		l.verify = func(rq *request, rp reply) bool {
			for i, s := range rq.samples {
				if !slices.Equal(rp.labels[i], want[s]) {
					return false
				}
			}
			return rp.version == in.pred.Version()
		}
	}

	var cursor atomic.Int64
	warm := l.run(min(0.3, c.seconds/4), &cursor) // connections, pools, caches
	if c.trace {
		return traceServe(c, res, in, l, &cursor)
	}
	res.setup(setupS, ref)
	w := l.measure(c.seconds, &cursor, ref)
	res.Attempted = warm.attempted + w.attempted
	res.Failed = warm.failed + w.failed
	res.Counts["requests"] = int64(len(w.ops))
	res.Counts["queries"] = w.queries
	if len(w.ops) < minBlocks {
		return nil, fmt.Errorf("only %d requests completed in %gs", len(w.ops), c.seconds)
	}

	res.window(ref)
	res.setRate("throughput", summarize(blockThroughput(w.ops, 1)))
	res.setTime("latency_p50_ms", quantile(latenciesMS(w.ops), 0.5), res.Reference.WindowFactor)
	p1 := float64(w.hits) / float64(max(w.queries, 1))
	res.set("p_at_1", p1)

	what := "every reply equals PredictEntries on the serving snapshot"
	if sampled {
		what = fmt.Sprintf("labels distinct, in range, and ranked by exact score on the first %d samples", sampledChecked)
	}
	res.check("served_labels", res.Failed == 0, "%d of %d requests failed (%d non-200); %s",
		res.Failed, res.Attempted, warm.non200+w.non200, what)
	floor := in.f.p1Floor
	if sampled {
		floor /= 2 // retrieval misses some labels; still thousands of times chance
	}
	res.check("p_at_1_floor", c.smoke || p1 >= floor, "served p@1 %.4f over %d queries, floor %.2f", p1, w.queries, floor)
	res.finish()
	return res, nil
}
