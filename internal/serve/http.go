package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// The HTTP surface of a serving replica:
//
//	GET  /healthz      → {"status":"ok","version":3}         (503 until a snapshot loads)
//	GET  /v1/info      → model metadata of the served snapshot
//	POST /v1/classify  {"nodes":[4,7]}      → {"version":3,"classes":[1,0]}
//	POST /v1/score     {"pairs":[[0,1]]}    → {"version":3,"scores":[0.83]}
//
// Every answer names the snapshot version it came from, so clients can
// detect hot swaps mid-stream and pin caches to versions.

type classifyRequest struct {
	Nodes []int `json:"nodes"`
}

type classifyResponse struct {
	Version uint64 `json:"version"`
	Classes []int  `json:"classes"`
}

type scoreRequest struct {
	Pairs [][2]int `json:"pairs"`
}

type scoreResponse struct {
	Version uint64    `json:"version"`
	Scores  []float64 `json:"scores"`
}

type infoResponse struct {
	Version    uint64  `json:"version"`
	Task       string  `json:"task"`
	Backbone   string  `json:"backbone"`
	Dataset    string  `json:"dataset,omitempty"`
	Round      int     `json:"round,omitempty"`
	Metric     float64 `json:"metric,omitempty"`
	MetricName string  `json:"metric_name,omitempty"`
	Nodes      int     `json:"nodes"`
	Classes    int     `json:"classes"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; queries are small.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP API for this server. When Options.Metrics is
// set, GET /metrics serves the registry in Prometheus text format; when
// Options.AccessLog is set, every request is reported to it after being
// handled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/score", s.handleScore)
	if s.opt.Metrics != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.opt.AccessLog == nil {
		return mux
	}
	return s.accessLogged(mux)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opt.Metrics.WritePrometheus(w)
}

// statusWriter captures the response status for access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

// accessLogged wraps h so every request emits one AccessRecord.
func (s *Server) accessLogged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		lat := time.Since(start)
		var version uint64
		if b := s.Current(); b != nil {
			version = b.Version
		}
		s.opt.AccessLog(AccessRecord{
			Method:    r.Method,
			Path:      r.URL.Path,
			Status:    sw.status,
			Latency:   lat,
			LatencyMS: float64(lat.Nanoseconds()) / 1e6,
			Version:   version,
		})
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := s.Current()
	if b == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"no snapshot loaded yet"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
	}{"ok", b.Version})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	b := s.Current()
	if b == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"no snapshot loaded yet"})
		return
	}
	writeJSON(w, http.StatusOK, infoResponse{
		Version:    b.Version,
		Task:       b.Meta.Task,
		Backbone:   b.Meta.Backbone,
		Dataset:    b.Meta.Dataset,
		Round:      b.Meta.Round,
		Metric:     b.Meta.Metric,
		MetricName: b.Meta.MetricName,
		Nodes:      b.N,
		Classes:    b.Classes,
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Nodes) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty node list"})
		return
	}
	version, classes, err := s.Classify(req.Nodes)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, classifyResponse{version, classes})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req scoreRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty pair list"})
		return
	}
	version, scores, err := s.Score(req.Pairs)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, scoreResponse{version, scores})
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

// writeQueryError maps query failures: not-ready is a 503 load balancers
// back off from; everything else (out-of-range node, headless model) is
// the client's 400.
func writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errNotReady) || errors.Is(err, errClosed) {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
