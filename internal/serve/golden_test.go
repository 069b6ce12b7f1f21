package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/nn"
	"lumos/internal/snapshot"
)

// TestServeHTTPGolden pins the HTTP contract byte for byte: the status and a
// hash of the body of every answer a replica gives across its life — before
// any snapshot, serving a classifier, after a hot swap to a link scorer, on a
// rejected stale swap, and for each kind of client mistake. A change to how
// queries reach the bundle must leave every line unchanged.
func TestServeHTTPGolden(t *testing.T) {
	sup, _, _ := trainedSystem(t, core.Supervised, 81)
	link, _, es := trainedSystem(t, core.Unsupervised, 83)

	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got []string
	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got = append(got, fmt.Sprintf("%s %s %d %x", method, path, resp.StatusCode, sum[:8]))
	}
	nodes := func(n int) string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprint(i)
		}
		return `{"nodes":[` + strings.Join(ids, ",") + `]}`
	}
	pairs := func(ps [][2]int) string {
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = fmt.Sprintf("[%d,%d]", p[0], p[1])
		}
		return `{"pairs":[` + strings.Join(parts, ",") + `]}`
	}

	do("GET", "/healthz", "")
	do("POST", "/v1/classify", `{"nodes":[0]}`)
	do("POST", "/v1/score", `{"pairs":[[0,1]]}`)

	s.Swap(bundleOf(t, sup, 1))
	do("GET", "/healthz", "")
	do("GET", "/v1/info", "")
	do("POST", "/v1/classify", nodes(sup.G.N))
	do("POST", "/v1/score", pairs([][2]int{{0, 1}, {2, 3}, {39, 0}, {7, 7}}))
	do("POST", "/v1/classify", `{"nodes":[3,40]}`)
	do("POST", "/v1/classify", `{"nodes":[-1]}`)
	do("POST", "/v1/classify", `{"nodes":[]}`)
	do("POST", "/v1/score", `{"pairs":[]}`)
	do("POST", "/v1/score", `{"pears":[[0,1]]}`)
	do("POST", "/v1/classify", `not json`)
	do("GET", "/v1/classify", "")

	s.Swap(bundleOf(t, link, 2))
	s.Swap(bundleOf(t, sup, 1)) // stale: rejected, v2 keeps serving
	do("GET", "/healthz", "")
	do("GET", "/v1/info", "")
	do("POST", "/v1/score", pairs(append(append([][2]int(nil), es.Test...), es.TestNeg...)))
	do("POST", "/v1/classify", `{"nodes":[0]}`)
	do("POST", "/v1/score", `{"pairs":[[0,40]]}`)

	want := []string{
		"GET /healthz 503 5e99dd2a3dce212b",
		"POST /v1/classify 503 197b4144f23b8635",
		"POST /v1/score 503 197b4144f23b8635",
		"GET /healthz 200 03dc8f7f234ca27a",
		"GET /v1/info 200 5dd6b342056de203",
		"POST /v1/classify 200 492ef550b6c063c4",
		"POST /v1/score 200 b36edf0317afc7f5",
		"POST /v1/classify 400 9e5c2f59da5b0b48",
		"POST /v1/classify 400 3f64a1944e16e5b1",
		"POST /v1/classify 400 57e1c62fff211269",
		"POST /v1/score 400 f45a887068a7e1ca",
		"POST /v1/score 400 4b287088d6697772",
		"POST /v1/classify 400 c23c4ad0bac9d83b",
		"GET /v1/classify 405 c40aa69f0b306cea",
		"GET /healthz 200 c5527ef2625ca0df",
		"GET /v1/info 200 6958759fd3e192c4",
		"POST /v1/score 200 e4b8b3dd5f0cec99",
		"POST /v1/classify 400 c0875c05816aab4c",
		"POST /v1/score 400 ab79ced9d2a0d787",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("HTTP transcript differs from the golden; got:\n%s", strings.Join(got, "\n"))
	}
}

// TestServedAnswersGolden pins what a replica answers after the whole
// publish path — Capture → PublishNext → Read → NewBundle — for a GCN and a
// GAT classifier and a GCN link predictor: a hash of every vertex's class
// and of the bit patterns of a fixed pair list's scores. A change to what a
// snapshot carries, or to how a replica prepares it, must leave every hash
// unchanged.
func TestServedAnswersGolden(t *testing.T) {
	cases := []struct {
		name     string
		task     core.Task
		backbone nn.Backbone
		seed     int64
		want     string
	}{
		{"supervised-gcn", core.Supervised, nn.GCN, 91, "5e5644bb8ead778d"},
		{"supervised-gat", core.Supervised, nn.GAT, 93, "d225758a48842506"},
		{"link-gcn", core.Unsupervised, nn.GCN, 95, "e7336d732bdd704c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, _, es := trainedBackbone(t, tc.task, tc.backbone, tc.seed)
			path := filepath.Join(t.TempDir(), "model.snap")
			snap, err := snapshot.Capture(sys, snapshot.Meta{Dataset: "servetest", Seed: tc.seed, Round: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.PublishNext(path, snap); err != nil {
				t.Fatal(err)
			}
			loaded, err := snapshot.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBundle(loaded)
			if err != nil {
				t.Fatal(err)
			}

			h := sha256.New()
			fmt.Fprintf(h, "v%d n%d classes%d\n", b.Version, b.N, b.Classes)
			all := make([]int, b.N)
			pairs := make([][2]int, b.N)
			for v := range all {
				all[v] = v
				pairs[v] = [2]int{v, (7*v + 3) % b.N}
			}
			if b.Classes > 0 {
				classes, err := b.Classify(all)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintln(h, classes)
			}
			if es != nil {
				pairs = append(append(pairs, es.Test...), es.TestNeg...)
			}
			scores, err := b.Score(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range scores {
				fmt.Fprintf(h, "%016x\n", math.Float64bits(s))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
				t.Fatalf("served answers hash %s, want %s", got, tc.want)
			}
		})
	}
}
