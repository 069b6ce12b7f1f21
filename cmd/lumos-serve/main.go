// Command lumos-serve answers node-classification and link-scoring queries
// over HTTP from a published model snapshot. With -watch it polls the
// snapshot file and hot-swaps atomically whenever the trainer republishes a
// newer version — in-flight queries finish on the old model, the next batch
// sees the new one, and the served version never moves backwards.
//
// Usage:
//
//	lumos-train -dataset facebook -publish model.snap
//	lumos-serve -snapshot model.snap -addr :8080 -watch
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/info
//	curl localhost:8080/metrics
//	curl -d '{"nodes":[4,7]}' localhost:8080/v1/classify
//	curl -d '{"pairs":[[0,1],[2,3]]}' localhost:8080/v1/score
//
// Observability: GET /metrics serves Prometheus-text runtime metrics
// (query latency and batch-size histograms, queue depth, swap count,
// serving snapshot version/age). -log emits one structured JSON line per
// request on stderr; -pprof mounts net/http/pprof under /debug/pprof/.
//
// SIGTERM or SIGINT drains the replica: it stops accepting connections,
// lets in-flight requests finish (for at most drainTimeout), stops the
// watcher and the batcher, and exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lumos/internal/obs"
	"lumos/internal/serve"
	"lumos/internal/snapshot"
)

// drainTimeout bounds how long a signalled replica waits for in-flight
// requests before closing their connections.
const drainTimeout = 3 * time.Second

func main() {
	var (
		snapPath  = flag.String("snapshot", "model.snap", "snapshot file to serve (published by lumos-train -publish)")
		addr      = flag.String("addr", ":8080", "HTTP listen address (use 127.0.0.1:0 for an ephemeral port)")
		watch     = flag.Bool("watch", false, "poll the snapshot file and hot-swap when a newer version is published")
		interval  = flag.Duration("watch-interval", 500*time.Millisecond, "snapshot poll interval with -watch")
		batch     = flag.Int("batch", 64, "max queries answered per bundle load")
		batchWait = flag.Duration("batch-wait", 2*time.Millisecond, "how long a non-full batch waits for more queries")
		accessLog = flag.Bool("log", false, "emit one structured JSON line per request on stderr")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "lumos-serve: ", log.LstdFlags)
	opt := serve.Options{
		MaxBatch:  *batch,
		BatchWait: *batchWait,
		Logf:      logger.Printf,
		Metrics:   obs.New(),
	}
	if *accessLog {
		// One JSON object per request, on stderr so the stdout port banner
		// stays machine-parseable.
		enc := json.NewEncoder(os.Stderr)
		opt.AccessLog = func(rec serve.AccessRecord) { enc.Encode(rec) }
	}
	srv := serve.New(opt)
	defer srv.Close()

	// Load the initial snapshot up front so a bad path fails loudly at
	// startup; with -watch a missing file is tolerated (the trainer may not
	// have published yet) and picked up on the first poll that finds it.
	if snap, err := snapshot.Read(*snapPath); err != nil {
		if !*watch {
			fatalf("%v", err)
		}
		logger.Printf("waiting for %s: %v", *snapPath, err)
	} else {
		b, err := serve.NewBundle(snap)
		if err != nil {
			fatalf("%v", err)
		}
		srv.Swap(b)
	}
	if *watch {
		stop := srv.Watch(*snapPath, *interval)
		defer stop()
	}

	handler := srv.Handler()
	if *withPprof {
		// Mount pprof on an outer mux so the serving API stays the inner
		// handler's concern (and keeps its access logging).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	// The resolved address goes to stdout so scripts serving on an
	// ephemeral port (-addr 127.0.0.1:0) can find it.
	fmt.Printf("serving %s on http://%s\n", *snapPath, ln.Addr())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	httpSrv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		fatalf("%v", err)
	case sig := <-sigs:
		logger.Printf("%v: draining", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	// Returning runs the deferred watcher stop and srv.Close.
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lumos-serve: "+format+"\n", args...)
	os.Exit(1)
}
