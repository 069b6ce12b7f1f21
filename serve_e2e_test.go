// End-to-end test of the train→publish→serve loop through the real CLIs:
// lumos-train publishes snapshot v1, lumos-serve serves it on an ephemeral
// port with -watch, HTTP queries answer, a republish hot-swaps the replica
// to v2 without a restart, and SIGTERM drains it to a clean exit.
package lumos_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lumos/internal/obs"
)

func TestServePublishServeQueryE2E(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not available: %v", err)
	}
	binDir := t.TempDir()
	trainBin := filepath.Join(binDir, "lumos-train")
	serveBin := filepath.Join(binDir, "lumos-serve")
	for _, b := range []struct{ bin, pkg string }{
		{trainBin, "./cmd/lumos-train"},
		{serveBin, "./cmd/lumos-serve"},
	} {
		if out, err := exec.Command(goBin, "build", "-o", b.bin, b.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}

	snapPath := filepath.Join(binDir, "model.snap")
	train := func() string {
		t.Helper()
		out, err := exec.Command(trainBin,
			"-dataset", "facebook", "-scale", "0.005", "-epochs", "2", "-mcmc", "10",
			"-publish", snapPath).CombinedOutput()
		if err != nil {
			t.Fatalf("lumos-train: %v\n%s", err, out)
		}
		return string(out)
	}
	if out := train(); !strings.Contains(out, "published snapshot v1") {
		t.Fatalf("first training run did not publish v1:\n%s", out)
	}

	serve := exec.Command(serveBin,
		"-snapshot", snapPath, "-addr", "127.0.0.1:0", "-watch", "-watch-interval", "5ms")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() {
		waitErr = serve.Wait()
		close(exited)
	}()
	defer func() {
		serve.Process.Kill() // a no-op once the replica has exited
		<-exited
	}()

	// The first stdout line names the resolved ephemeral address.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading lumos-serve banner: %v", err)
	}
	i := strings.Index(line, "http://")
	if i < 0 {
		t.Fatalf("no address in banner %q", line)
	}
	base := strings.TrimSpace(line[i:])

	client := &http.Client{Timeout: 10 * time.Second}
	getJSON := func(path string, dst any) int {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
		return resp.StatusCode
	}
	postJSON := func(path, body string, dst any) int {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
		return resp.StatusCode
	}
	waitVersion := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var h struct {
				Version uint64 `json:"version"`
			}
			if code := getJSON("/healthz", &h); code == http.StatusOK && h.Version == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("replica never served snapshot v%d", want)
	}
	waitVersion(1)

	var info struct {
		Version  uint64 `json:"version"`
		Task     string `json:"task"`
		Backbone string `json:"backbone"`
		Nodes    int    `json:"nodes"`
		Classes  int    `json:"classes"`
	}
	if code := getJSON("/v1/info", &info); code != http.StatusOK {
		t.Fatalf("info: HTTP %d", code)
	}
	if info.Version != 1 || info.Task != "supervised" || info.Nodes <= 0 || info.Classes <= 0 {
		t.Fatalf("info: %+v", info)
	}

	var cls struct {
		Version uint64 `json:"version"`
		Classes []int  `json:"classes"`
	}
	body := fmt.Sprintf(`{"nodes":[0,1,%d]}`, info.Nodes-1)
	if code := postJSON("/v1/classify", body, &cls); code != http.StatusOK {
		t.Fatalf("classify: HTTP %d", code)
	}
	if cls.Version != 1 || len(cls.Classes) != 3 {
		t.Fatalf("classify: %+v", cls)
	}
	for _, c := range cls.Classes {
		if c < 0 || c >= info.Classes {
			t.Fatalf("class %d out of range [0,%d)", c, info.Classes)
		}
	}

	var score struct {
		Version uint64    `json:"version"`
		Scores  []float64 `json:"scores"`
	}
	if code := postJSON("/v1/score", `{"pairs":[[0,1]]}`, &score); code != http.StatusOK {
		t.Fatalf("score: HTTP %d", code)
	}
	if score.Version != 1 || len(score.Scores) != 1 {
		t.Fatalf("score: %+v", score)
	}

	// Republish: the watching replica must hot-swap to v2 with no restart.
	if out := train(); !strings.Contains(out, "published snapshot v2") {
		t.Fatalf("second training run did not publish v2:\n%s", out)
	}
	waitVersion(2)
	if code := postJSON("/v1/classify", body, &cls); code != http.StatusOK || cls.Version != 2 {
		t.Fatalf("classify after swap: HTTP %d, %+v", code, cls)
	}

	// The replica's Prometheus surface: /metrics parses and reports the
	// serving state this test just drove (two snapshots, now at v2).
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d, %v", resp.StatusCode, err)
	}
	metrics, err := obs.ParsePrometheus(string(raw))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v := metrics["lumos_serve_snapshot_version"]; v != 2 {
		t.Fatalf("lumos_serve_snapshot_version = %v, want 2", v)
	}
	if n := metrics["lumos_serve_swaps_total"]; n != 2 {
		t.Fatalf("lumos_serve_swaps_total = %v, want 2", n)
	}
	if c := metrics[`lumos_serve_queries_total{endpoint="classify"}`]; c < 2 {
		t.Fatalf(`lumos_serve_queries_total{endpoint="classify"} = %v, want >= 2`, c)
	}

	// SIGTERM drains the replica to exit status 0.
	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("lumos-serve after SIGTERM: %v", waitErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lumos-serve did not exit within 5 s of SIGTERM")
	}
}
