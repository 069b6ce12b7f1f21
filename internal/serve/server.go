package serve

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lumos/internal/obs"
	"lumos/internal/snapshot"
)

// Options tunes a Server. The zero value is usable.
type Options struct {
	// MaxBatch caps how many queued queries one worker pass answers against
	// a single bundle load (default 64).
	MaxBatch int
	// BatchWait is how long a non-full batch waits for stragglers before
	// being answered (default 2ms).
	BatchWait time.Duration
	// Logf, when set, receives watcher and swap diagnostics.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, registers the replica's instruments (query
	// latency and batch-size histograms, queue depth, swap counter,
	// serving snapshot version/age) and enables GET /metrics on Handler.
	Metrics *obs.Registry
	// AccessLog, when set, receives one record per HTTP request handled
	// by Handler. Nil (the default) logs nothing.
	AccessLog func(AccessRecord)
}

// AccessRecord describes one handled HTTP request for access logging.
type AccessRecord struct {
	Method  string        `json:"method"`
	Path    string        `json:"path"`
	Status  int           `json:"status"`
	Latency time.Duration `json:"-"`
	// LatencyMS mirrors Latency for structured (JSON) log lines.
	LatencyMS float64 `json:"latency_ms"`
	// Version is the snapshot version being served when the request
	// finished (0 = none loaded).
	Version uint64 `json:"version"`
}

// Server answers queries against the currently-published bundle. Queries
// are batched: a worker drains the queue up to MaxBatch, loads the bundle
// pointer once, and answers the whole batch from it — so every query in a
// batch sees the same model version even while a hot swap lands.
type Server struct {
	opt  Options
	cur  atomic.Pointer[Bundle]
	reqs chan *request
	quit chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
	tel  serveTelemetry
}

type reqKind int

const (
	kindClassify reqKind = iota
	kindScore
)

// The two query errors that mean "not now" rather than "bad query": the HTTP
// layer answers them 503 so load balancers back off.
var (
	errNotReady = errors.New("serve: no snapshot loaded yet")
	errClosed   = errors.New("serve: server closed")
)

type request struct {
	kind  reqKind
	nodes []int
	pairs [][2]int
	done  chan result
}

type result struct {
	version uint64
	classes []int
	scores  []float64
	err     error
}

// New builds a Server and starts its batching worker. Close releases it.
func New(opt Options) *Server {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 64
	}
	if opt.BatchWait <= 0 {
		opt.BatchWait = 2 * time.Millisecond
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	s := &Server{
		opt:  opt,
		reqs: make(chan *request, 4*opt.MaxBatch),
		quit: make(chan struct{}),
	}
	s.initTelemetry()
	s.wg.Add(1)
	go s.worker()
	return s
}

// Close stops the batching worker. In-flight and later queries are answered
// with an error (HTTP 503); Swap and Current remain safe to call, and so does
// a second Close.
func (s *Server) Close() {
	s.stop.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Current returns the bundle queries are being answered from (nil before
// the first swap).
func (s *Server) Current() *Bundle { return s.cur.Load() }

// Swap atomically replaces the current bundle if b is strictly newer. It
// reports whether the swap happened; stale or replayed versions are
// rejected, so the served version can only move forward no matter how many
// publishers or watchers race.
func (s *Server) Swap(b *Bundle) bool {
	for {
		cur := s.cur.Load()
		if cur != nil && b.Version <= cur.Version {
			return false
		}
		if s.cur.CompareAndSwap(cur, b) {
			s.opt.Logf("serve: now serving snapshot v%d (%d vertices, %d classes)", b.Version, b.N, b.Classes)
			s.tel.swaps.Inc()
			return true
		}
	}
}

// Classify answers a node-classification query through the batching path.
func (s *Server) Classify(nodes []int) (uint64, []int, error) {
	t0 := s.tel.begin()
	res := s.submit(&request{kind: kindClassify, nodes: nodes, done: make(chan result, 1)})
	s.tel.query(kindClassify, t0, res.err)
	return res.version, res.classes, res.err
}

// Score answers a link-scoring query through the batching path.
func (s *Server) Score(pairs [][2]int) (uint64, []float64, error) {
	t0 := s.tel.begin()
	res := s.submit(&request{kind: kindScore, pairs: pairs, done: make(chan result, 1)})
	s.tel.query(kindScore, t0, res.err)
	return res.version, res.scores, res.err
}

func (s *Server) submit(r *request) result {
	select {
	case s.reqs <- r:
	case <-s.quit:
		return result{err: errClosed}
	}
	select {
	case res := <-r.done:
		return res
	case <-s.quit:
		return result{err: errClosed}
	}
}

// worker drains queries in batches; one bundle load answers a whole batch.
func (s *Server) worker() {
	defer s.wg.Done()
	results := make([]result, 0, s.opt.MaxBatch)
	for {
		select {
		case <-s.quit:
			return
		case first := <-s.reqs:
			batch := append(make([]*request, 0, s.opt.MaxBatch), first)
			timer := time.NewTimer(s.opt.BatchWait)
		collect:
			for len(batch) < s.opt.MaxBatch {
				select {
				case r := <-s.reqs:
					batch = append(batch, r)
				case <-timer.C:
					break collect
				case <-s.quit:
					break collect
				}
			}
			timer.Stop()
			b := s.cur.Load()
			results = results[:0]
			for _, r := range batch {
				results = append(results, answer(b, r))
			}
			// Record the batch before delivering it, so a caller that
			// scrapes /metrics once its answer arrives sees the batch.
			s.tel.batchSize.Observe(float64(len(batch)))
			for i, r := range batch {
				r.done <- results[i]
			}
		}
	}
}

func answer(b *Bundle, r *request) result {
	if b == nil {
		return result{err: errNotReady}
	}
	switch r.kind {
	case kindClassify:
		classes, err := b.Classify(r.nodes)
		return result{version: b.Version, classes: classes, err: err}
	default:
		scores, err := b.Score(r.pairs)
		return result{version: b.Version, scores: scores, err: err}
	}
}

// Watch polls the snapshot file at path and hot-swaps when a newer version
// is published there. The stat (mtime+size) gates a cheap header peek,
// which gates the full read — a republish is picked up within about one
// interval, while an unchanged file costs one stat per tick. Transient
// errors (mid-rename windows, a corrupt publish) are logged, counted on
// lumos_serve_load_errors_total and retried when the file next changes;
// the previous bundle keeps serving. The returned stop function halts the
// watcher and waits for it to exit.
func (s *Server) Watch(path string, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastMod time.Time
		var lastSize int64
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			st, err := os.Stat(path)
			if err == nil && (!st.ModTime().Equal(lastMod) || st.Size() != lastSize) {
				lastMod, lastSize = st.ModTime(), st.Size()
				s.maybeLoad(path)
			} else if err != nil && !os.IsNotExist(err) {
				s.opt.Logf("serve: watching %s: %v", path, err)
			}
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// maybeLoad swaps in the snapshot at path if it is newer than the one
// serving. Each failure is logged and counted; the served bundle stays.
func (s *Server) maybeLoad(path string) {
	v, err := snapshot.PeekVersion(path)
	if err != nil {
		s.tel.loadErrors.Inc()
		s.opt.Logf("serve: peeking %s: %v", path, err)
		return
	}
	if cur := s.cur.Load(); cur != nil && v <= cur.Version {
		return
	}
	snap, err := snapshot.Read(path)
	if err != nil {
		s.tel.loadErrors.Inc()
		s.opt.Logf("serve: reading %s: %v", path, err)
		return
	}
	b, err := NewBundle(snap)
	if err != nil {
		s.tel.loadErrors.Inc()
		s.opt.Logf("serve: preparing %s: %v", path, err)
		return
	}
	s.Swap(b)
}
