package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lumos/internal/core"
	"lumos/internal/obs"
	"lumos/internal/serve"
	"lumos/internal/snapshot"
	"lumos/internal/tensor"
)

// expected is the publishing trainer's own answer to every possible query:
// System.Predictions() and the embeddings System.PairScores() dots.
type expected struct {
	preds []int          // nil without a classification head
	emb   *tensor.Matrix // pooled per-vertex embeddings
}

func expectations(sys *core.System) (*expected, error) {
	want := &expected{emb: sys.Embeddings()}
	if sys.Head != nil {
		var err error
		if want.preds, err = sys.Predictions(); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// serving is the replica under test: one in-process serve.Server behind one
// loopback listener, and the HTTP client that loads it. Nothing here is a
// child process.
type serving struct {
	r       *run
	srv     *serve.Server
	inproc  bool // queries call the Server directly instead of POSTing
	clients int

	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve returns
	client  *http.Client
	base    string

	snapPath string
}

func (r *run) startServing(reg *obs.Registry) (*serving, error) {
	sv := &serving{
		r:        r,
		srv:      serve.New(serve.Options{Metrics: reg}),
		inproc:   r.w.serve == serveInprocClassify,
		clients:  r.w.clients,
		snapPath: filepath.Join(r.snapDir, "model.snap"),
		served:   make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.srv.Close()
		return nil, err
	}
	sv.base = "http://" + ln.Addr().String()
	sv.httpSrv = &http.Server{Handler: sv.srv.Handler()}
	go func() {
		defer close(sv.served)
		sv.httpSrv.Serve(ln) // returns ErrServerClosed on close()
	}()
	conns := sv.clients // one connection per closed-loop client
	sv.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   10 * time.Second,
	}
	return sv, nil
}

// close releases the client's connections, the listener, the HTTP server's
// goroutines and the batching worker, and returns once they are gone.
func (sv *serving) close() {
	sv.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := sv.httpSrv.Shutdown(ctx); err != nil {
		sv.httpSrv.Close()
	}
	cancel()
	<-sv.served
	sv.srv.Close()
}

// publish is snapshot.Capture → PublishNext → Read → serve.NewBundle → Swap,
// by direct calls: Server.Watch's poll ticker would add a uniform 0–500 ms.
func (sv *serving) publish(sys *core.System, track int) (uint64, error) {
	rec := sv.r.rec
	var (
		snap, loaded *snapshot.Snapshot
		version      uint64
		bundle       *serve.Bundle
		err          error
	)
	rec.on(track, "snapshot", "Capture", func() {
		snap, err = snapshot.Capture(sys, snapshot.Meta{Dataset: sv.r.w.dataset, Seed: sv.r.dataSeed})
	})
	if err != nil {
		return 0, err
	}
	rec.on(track, "snapshot", "PublishNext", func() { version, err = snapshot.PublishNext(sv.snapPath, snap) })
	if err != nil {
		return 0, err
	}
	rec.on(track, "snapshot", "Read", func() { loaded, err = snapshot.Read(sv.snapPath) })
	if err != nil {
		return 0, err
	}
	rec.on(track, "serve", "NewBundle", func() { bundle, err = serve.NewBundle(loaded) })
	if err != nil {
		return 0, err
	}
	swapped := false
	rec.on(track, "serve", "Server.Swap", func() { swapped = sv.srv.Swap(bundle) })
	if !swapped {
		return 0, fmt.Errorf("swap to v%d rejected", version)
	}
	return version, nil
}

// publishCycle times one publish up to the first query answered, correctly,
// at the new version.
func (sv *serving) publishCycle(sys *core.System, want *expected) (float64, error) {
	// Start every cycle from a collected heap: a cycle allocates several
	// snapshot-sized buffers, and whether the previous cycle's were still
	// around decided both the cycle's GC work and the process's peak RSS.
	runtime.GC()
	id := sv.r.rec.begin(trackMain, "harness", "publish_cycle")
	defer sv.r.rec.end(id)
	t0 := time.Now()
	version, err := sv.publish(sys, trackMain)
	if err != nil {
		return 0, err
	}
	var q query
	q.fill(sv.r.w, want, rand.New(rand.NewSource(int64(version))), nil)
	var got uint64
	var right bool
	sv.r.rec.in("serve", "first_query", func() { got, right, err = sv.ask(&q, want, sv.inproc) })
	ms := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return 0, fmt.Errorf("first query after publishing v%d: %w", version, err)
	}
	sv.r.check(right && got == version, "first query after publishing v%d answered at v%d, correct=%v", version, got, right)
	return ms, nil
}

// startPublisher republishes and swaps every 500 ms beside the load, the
// way a trainer that keeps publishing would; stop waits for it to exit.
func (sv *serving) startPublisher(sys *core.System, want *expected) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := sv.publish(sys, trackPublisher); err != nil {
					sv.r.fail("hot-swap publish: %v", err)
				} else {
					sv.r.ok(1)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// query is one request: either nodes to classify or pairs to score.
type query struct {
	nodes []int
	pairs [][2]int
}

// fill draws the request's vertices. With a zipf source a few hot vertices
// dominate, as in serve.RunLoad; the publish cycle's single query passes nil
// and draws uniformly.
func (q *query) fill(w *workload, want *expected, rng *rand.Rand, zipf *rand.Zipf) {
	n := want.emb.Rows()
	draw := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(n)
	}
	classify := want.preds != nil
	switch w.serve {
	case serveHTTPScore:
		classify = false
	case serveHTTPMixedSwap:
		classify = rng.Float64() < 0.7
	}
	q.nodes, q.pairs = q.nodes[:0], q.pairs[:0]
	for i := 0; i < w.batch; i++ {
		if classify {
			q.nodes = append(q.nodes, draw())
		} else {
			q.pairs = append(q.pairs, [2]int{draw(), draw()})
		}
	}
}

type classifyRequest struct {
	Nodes []int `json:"nodes"`
}

type scoreRequest struct {
	Pairs [][2]int `json:"pairs"`
}

type classifyResponse struct {
	Version uint64 `json:"version"`
	Classes []int  `json:"classes"`
}

type scoreResponse struct {
	Version uint64    `json:"version"`
	Scores  []float64 `json:"scores"`
}

// ask sends the query over the workload's transport and compares every
// class or score in the answer with the trainer's own.
func (sv *serving) ask(q *query, want *expected, inproc bool) (version uint64, right bool, err error) {
	if len(q.nodes) > 0 {
		var classes []int
		if inproc {
			version, classes, err = sv.srv.Classify(q.nodes)
		} else {
			var resp classifyResponse
			err = sv.post("/v1/classify", classifyRequest{q.nodes}, &resp)
			version, classes = resp.Version, resp.Classes
		}
		if err != nil {
			return 0, false, err
		}
		right = len(classes) == len(q.nodes)
		for i := 0; right && i < len(classes); i++ {
			right = classes[i] == want.preds[q.nodes[i]]
		}
		return version, right, nil
	}
	var scores []float64
	if inproc {
		version, scores, err = sv.srv.Score(q.pairs)
	} else {
		var resp scoreResponse
		err = sv.post("/v1/score", scoreRequest{q.pairs}, &resp)
		version, scores = resp.Version, resp.Scores
	}
	if err != nil {
		return 0, false, err
	}
	right = len(scores) == len(q.pairs)
	for i := 0; right && i < len(scores); i++ {
		p := q.pairs[i]
		right = math.Float64bits(scores[i]) == math.Float64bits(tensor.RowDot(want.emb, p[0], want.emb, p[1]))
	}
	return version, right, nil
}

func (sv *serving) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := sv.client.Post(sv.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 256)) // best effort, for the error text only
		return fmt.Errorf("%s: %s: %s", path, r.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	sent, answered int
	withinSLO      int // answered correctly within sloMs
	regressions    int // answers whose version went backwards within one client's stream
	latMs          []float64
	wallS          float64
}

// load replays `queries` requests from sv.clients closed-loop clients over
// the workload's transport.
func (sv *serving) load(want *expected, lap, queries int) (*loadResult, error) {
	return sv.loadFrom(want, lap, queries, sv.clients, sv.inproc)
}

// loadFrom is a closed loop: each client sends its next request when the
// previous one is answered. The stream is a function of the query seed, the
// lap and the client, nothing else.
func (sv *serving) loadFrom(want *expected, lap, queries, clients int, inproc bool) (*loadResult, error) {
	id := sv.r.rec.begin(trackMain, "serve", "load")
	defer sv.r.rec.end(id)
	type clientStats struct {
		loadResult
		firstErr error
	}
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		n := queries / clients
		if c < queries%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			st := &stats[c]
			rng := rand.New(rand.NewSource(sv.r.querySeed*1_000_003 + int64(lap)*7919 + int64(c)))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(want.emb.Rows()-1))
			st.latMs = make([]float64, 0, n)
			var q query
			var lastV uint64
			for i := 0; i < n; i++ {
				q.fill(sv.r.w, want, rng, zipf)
				st.sent++
				q0 := time.Now()
				version, right, err := sv.ask(&q, want, inproc)
				ms := time.Since(q0).Seconds() * 1e3
				if err != nil {
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.answered++
				st.latMs = append(st.latMs, ms)
				if right && ms <= sloMs {
					st.withinSLO++
				}
				if !right {
					sv.r.fail("wrong answer at v%d to %v %v", version, q.nodes, q.pairs)
				}
				if version < lastV {
					st.regressions++
				}
				lastV = version
			}
		}(c, n)
	}
	wg.Wait()
	res := &loadResult{wallS: time.Since(t0).Seconds()}
	for i := range stats {
		st := &stats[i]
		if st.firstErr != nil {
			sv.r.fail("client %d: %d of %d queries failed, first: %v", i, st.sent-st.answered, st.sent, st.firstErr)
		}
		res.sent += st.sent
		res.answered += st.answered
		res.withinSLO += st.withinSLO
		res.regressions += st.regressions
		res.latMs = append(res.latMs, st.latMs...)
	}
	sv.r.ok(res.answered)
	if res.answered == 0 {
		return nil, fmt.Errorf("no query of %d was answered", res.sent)
	}
	return res, nil
}
