package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/metrics"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/snapshot"
	"lumos/internal/tensor"
)

// trainedSystem briefly trains a small GCN system through the public core
// API.
func trainedSystem(t *testing.T, task core.Task, seed int64) (*core.System, *graph.NodeSplit, *graph.EdgeSplit) {
	t.Helper()
	return trainedBackbone(t, task, nn.GCN, seed)
}

// trainedBackbone is trainedSystem with the encoder backbone chosen.
func trainedBackbone(t *testing.T, task core.Task, backbone nn.Backbone, seed int64) (*core.System, *graph.NodeSplit, *graph.EdgeSplit) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "servetest", N: 40, M: 140, Classes: 3, FeatureDim: 12,
		Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Task: task, Backbone: backbone, Epochs: 2, MCMCIterations: 10, Shards: 5, Workers: 2, Seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	if task == core.Supervised {
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainSupervised(split); err != nil {
			t.Fatal(err)
		}
		return sys, split, nil
	}
	es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(es.TrainGraph, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainUnsupervised(es); err != nil {
		t.Fatal(err)
	}
	return sys, nil, es
}

// bundleOf round-trips a system through capture → encode → decode → bundle,
// the exact path a serving replica takes.
func bundleOf(t *testing.T, sys *core.System, version uint64) *Bundle {
	t.Helper()
	snap, err := snapshot.Capture(sys, snapshot.Meta{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBundle(decoded)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeBundleBitIdentical: a bundle built from an encoded+decoded
// snapshot must answer exactly what the live training system's own
// evaluation computes — same predictions, same accuracy, same AUC.
func TestServeBundleBitIdentical(t *testing.T) {
	t.Run("classification", func(t *testing.T) {
		sys, split, _ := trainedSystem(t, core.Supervised, 81)
		b := bundleOf(t, sys, 1)
		all := make([]int, b.N)
		for i := range all {
			all[i] = i
		}
		served, err := b.Classify(all)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Predictions()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(served, want) {
			t.Fatal("served classes differ from training-system predictions")
		}
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for v, mask := range split.IsTest {
			if !mask {
				continue
			}
			total++
			if served[v] == sys.G.Labels[v] {
				correct++
			}
		}
		if got := float64(correct) / float64(total); got != acc {
			t.Fatalf("served accuracy %v != EvaluateAccuracy %v", got, acc)
		}
	})

	t.Run("link-scoring", func(t *testing.T) {
		sys, _, es := trainedSystem(t, core.Unsupervised, 83)
		b := bundleOf(t, sys, 1)
		pairs := append(append([][2]int(nil), es.Test...), es.TestNeg...)
		served, err := b.Score(pairs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.PairScores(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(served, want) {
			t.Fatal("served scores differ from training-system pair scores")
		}
		labels := make([]bool, len(pairs))
		for i := range es.Test {
			labels[i] = true
		}
		servedAUC, err := metrics.ROCAUC(served, labels)
		if err != nil {
			t.Fatal(err)
		}
		auc, err := sys.EvaluateAUC(es.Test, es.TestNeg)
		if err != nil {
			t.Fatal(err)
		}
		if servedAUC != auc {
			t.Fatalf("served AUC %v != EvaluateAUC %v", servedAUC, auc)
		}
		if _, err := b.Classify([]int{0}); err == nil {
			t.Fatal("headless bundle answered a classify query")
		}
	})
}

// fakeBundle fabricates a bundle whose every answer encodes its version:
// all classes are int(v) and every pair score is v²·cols, so a reader that
// mixes fields from two bundles (a torn read) is caught immediately.
func fakeBundle(v uint64, n, cols int) *Bundle {
	emb := tensor.Full(n, cols, float64(v))
	preds := make([]int, n)
	for i := range preds {
		preds[i] = int(v)
	}
	return &Bundle{Version: v, N: n, Classes: int(v) + 1, emb: emb, preds: preds}
}

func fakeScore(v uint64, cols int) float64 {
	return float64(v) * float64(v) * float64(cols)
}

// TestServeHotSwapRace hammers the server with concurrent classify and
// score queries while a publisher hot-swaps through 30 versions (and
// replays stale ones). Every answer must be internally consistent with the
// version it reports, and each client's observed version must never move
// backwards. Run under -race this also proves the swap is torn-read free.
func TestServeHotSwapRace(t *testing.T) {
	const (
		nodes    = 16
		cols     = 4
		versions = 30
		clients  = 8
		queries  = 250
	)
	s := New(Options{BatchWait: 100 * time.Microsecond})
	defer s.Close()
	if !s.Swap(fakeBundle(1, nodes, cols)) {
		t.Fatal("initial swap rejected")
	}
	if s.Swap(fakeBundle(1, nodes, cols)) {
		t.Fatal("replayed version accepted")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); v <= versions; v++ {
			if !s.Swap(fakeBundle(v, nodes, cols)) {
				t.Errorf("swap to v%d rejected", v)
			}
			if s.Swap(fakeBundle(v-1, nodes, cols)) {
				t.Errorf("stale swap to v%d accepted", v-1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			var last uint64
			for i := 0; i < queries; i++ {
				if i%2 == 0 {
					version, classes, err := s.Classify([]int{rng.Intn(nodes)})
					if err != nil {
						t.Errorf("classify: %v", err)
						return
					}
					if classes[0] != int(version) {
						t.Errorf("torn read: class %d from v%d", classes[0], version)
						return
					}
					if version < last {
						t.Errorf("version moved backwards: %d after %d", version, last)
						return
					}
					last = version
				} else {
					version, scores, err := s.Score([][2]int{{rng.Intn(nodes), rng.Intn(nodes)}})
					if err != nil {
						t.Errorf("score: %v", err)
						return
					}
					if scores[0] != fakeScore(version, cols) {
						t.Errorf("torn read: score %v from v%d", scores[0], version)
						return
					}
					if version < last {
						t.Errorf("version moved backwards: %d after %d", version, last)
						return
					}
					last = version
				}
			}
		}(c)
	}
	wg.Wait()
	if got := s.Current().Version; got != versions {
		t.Fatalf("final version %d, want %d", got, versions)
	}
}

func TestServeHTTPEndpoints(t *testing.T) {
	s := New(Options{BatchWait: 100 * time.Microsecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	post := func(path, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// Before any snapshot loads, the replica reports unready.
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before load: %s", resp.Status)
	}
	if resp, _ := post("/v1/classify", `{"nodes":[0]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify before load: %s", resp.Status)
	}

	b := fakeBundle(3, 8, 2)
	b.Meta = snapshot.Meta{Version: 3, Task: "supervised", Backbone: "GCN", Dataset: "fake"}
	s.Swap(b)

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || body["version"].(float64) != 3 {
		t.Fatalf("healthz: %s %v", resp.Status, body)
	}
	if _, body := get("/v1/info"); body["dataset"] != "fake" || body["nodes"].(float64) != 8 {
		t.Fatalf("info: %v", body)
	}
	if resp, body := post("/v1/classify", `{"nodes":[1,5]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %s %v", resp.Status, body)
	} else if cs := body["classes"].([]any); len(cs) != 2 || cs[0].(float64) != 3 {
		t.Fatalf("classify answer: %v", body)
	}
	if resp, body := post("/v1/score", `{"pairs":[[0,1]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("score: %s %v", resp.Status, body)
	} else if ss := body["scores"].([]any); ss[0].(float64) != fakeScore(3, 2) {
		t.Fatalf("score answer: %v", body)
	}

	// Client mistakes are 400s with a reason, not 500s.
	if resp, _ := post("/v1/classify", `{"nodes":[99]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node: %s", resp.Status)
	}
	if resp, _ := post("/v1/classify", `{"nodes":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query: %s", resp.Status)
	}
	if resp, _ := post("/v1/score", `{"pears":[[0,1]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s", resp.Status)
	}
	if resp, _ := post("/v1/score", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %s", resp.Status)
	}
}

// TestServeWatchHotSwap publishes snapshots to a watched file and expects
// the server to pick each one up; a garbage overwrite must be tolerated
// without dropping the bundle already being served.
func TestServeWatchHotSwap(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 89)
	snap, err := snapshot.Capture(sys, snapshot.Meta{Dataset: "servetest"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.snap")
	if v, err := snapshot.PublishNext(path, snap); err != nil || v != 1 {
		t.Fatalf("publish v1: %d, %v", v, err)
	}

	s := New(Options{BatchWait: 100 * time.Microsecond, Logf: t.Logf})
	defer s.Close()
	stop := s.Watch(path, 2*time.Millisecond)
	defer stop()

	waitVersion := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if b := s.Current(); b != nil && b.Version == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("server never picked up snapshot v%d", want)
	}
	waitVersion(1)

	if v, err := snapshot.PublishNext(path, snap); err != nil || v != 2 {
		t.Fatalf("publish v2: %d, %v", v, err)
	}
	waitVersion(2)

	// A corrupt publish must not take down the replica.
	if err := os.WriteFile(path, []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if b := s.Current(); b == nil || b.Version != 2 {
		t.Fatalf("corrupt publish disturbed the served bundle: %+v", b)
	}
}

// TestServeWatchSurvivesBadPublishes: a replica outlives the two ways a
// publish goes bad on disk. A truncated file (its header claims a newer
// version, its body stops halfway) and then a file whose CRC trailer does
// not match land at the watched path, each replacing the last atomically.
// The first version keeps serving, each file counts one load error on
// lumos_serve_load_errors_total, and an unchanged bad file is not retried.
func TestServeWatchSurvivesBadPublishes(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 90)
	snap, err := snapshot.Capture(sys, snapshot.Meta{Dataset: "servetest"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if v, err := snapshot.PublishNext(path, snap); err != nil || v != 1 {
		t.Fatalf("publish v1: %d, %v", v, err)
	}
	snap.Meta.Version = 2
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	// place writes data beside path and renames it over path, as a
	// publisher does, so the watcher never sees a half-written file.
	place := func(data []byte) {
		t.Helper()
		tmp := filepath.Join(dir, "next.snap")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.New()
	loadErrors := reg.Counter("lumos_serve_load_errors_total", "")
	s := New(Options{BatchWait: 100 * time.Microsecond, Logf: t.Logf, Metrics: reg})
	defer s.Close()
	stop := s.Watch(path, 2*time.Millisecond)
	defer stop()
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	serving := func() uint64 {
		if b := s.Current(); b != nil {
			return b.Version
		}
		return 0
	}
	waitFor("v1 to serve", func() bool { return serving() == 1 })

	place(v2[:len(v2)/2])
	waitFor("the truncated file's load error", func() bool { return loadErrors.Value() == 1 })
	corrupt := bytes.Clone(v2)
	corrupt[len(corrupt)-1] ^= 0xff // the CRC trailer's last byte
	place(corrupt)
	waitFor("the corrupt file's load error", func() bool { return loadErrors.Value() == 2 })
	time.Sleep(20 * time.Millisecond) // ten more polls of the unchanged file
	if got := loadErrors.Value(); got != 2 || serving() != 1 {
		t.Fatalf("after a truncated and a corrupt publish: %d load errors, serving v%d; want 2 and v1", got, serving())
	}
}

// TestCloseRefusesQueries: after Close every query is refused as not ready
// (HTTP 503), while Swap and Current keep working and a second Close is
// harmless.
func TestCloseRefusesQueries(t *testing.T) {
	s := New(Options{BatchWait: 100 * time.Microsecond})
	s.Swap(fakeBundle(1, 8, 2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	s.Close()
	if _, _, err := s.Classify([]int{0}); err == nil {
		t.Fatal("closed server answered a classify query")
	}
	if _, _, err := s.Score([][2]int{{0, 1}}); err == nil {
		t.Fatal("closed server answered a score query")
	}
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{"nodes":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify after Close: %s, want 503", resp.Status)
	}
	if !s.Swap(fakeBundle(2, 8, 2)) || s.Current().Version != 2 {
		t.Fatal("Swap after Close did not take")
	}
}
