// Package server is the HTTP serving tier over a saccs.Client: a small JSON
// API (query, extract, append, register, reindex) layered on the
// observability mux, so one listener exposes the whole operational surface —
// /v1/* for traffic, /metrics, /healthz, /readyz, /debug/slow and
// /debug/pprof for operators.
//
// The handlers are a thin shell: every request parses its body, ingests an
// optional W3C traceparent header into the request context (so the client's
// wide events join the caller's trace), and calls the corresponding Client
// method. All ranking, durability, and telemetry semantics live
// below the facade; the HTTP layer adds only transport concerns — method
// checks, body-size limits, JSON framing, and graceful drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"saccs"
	"saccs/internal/obs"
)

// Config tunes the HTTP tier. The zero value listens on a random port with a
// 1 MiB body cap and a 5 s drain window.
type Config struct {
	// Addr is the listen address ("" = ":0", a random free port; the bound
	// address is available from Server.Addr after Start).
	Addr string
	// MaxBodyBytes caps request bodies; a larger body is refused with 413
	// before it is read in full (0 = 1 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds how long Shutdown waits for in-flight requests
	// after readiness flips to 503 (0 = 5 s).
	DrainTimeout time.Duration
}

// Server owns one HTTP listener over one Client. It does not own the
// client: Shutdown drains the server, and the caller shuts the client down.
type Server struct {
	c   *saccs.Client
	cfg Config
	mux *http.ServeMux
	srv *http.Server
	// drained is set once Shutdown has drained; every write is refused after.
	drained atomic.Bool
}

// New assembles the serving mux over c. Start opens the listener; Handler
// exposes the mux directly for in-process tests.
func New(c *saccs.Client, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":0"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s := &Server{c: c, cfg: cfg, mux: obs.ObserverMux(c.Observer())}
	s.mux.HandleFunc("/v1/query", s.post(s.handleQuery))
	s.mux.HandleFunc("/v1/extract", s.post(s.handleExtract))
	s.mux.HandleFunc("/v1/append", s.post(s.write(s.handleAppend)))
	s.mux.HandleFunc("/v1/register", s.post(s.write(s.handleRegister)))
	s.mux.HandleFunc("/v1/reindex", s.post(s.write(s.handleReindex)))
	return s
}

// Handler returns the full serving mux (API + observability endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Start opens the listener synchronously: when it returns nil the server is
// accepting connections and Addr reports the resolved bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.srv = &http.Server{Addr: ln.Addr().String(), Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.srv == nil {
		return s.cfg.Addr
	}
	return s.srv.Addr
}

// Shutdown drains gracefully: readiness flips to 503 first (so load
// balancers stop routing here), in-flight requests get up to DrainTimeout to
// finish, and from then on the server refuses every write with 503 while
// its handler (reached through Handler) still answers queries. The client
// stays open: it was handed to New, so its owner calls Client.Shutdown to
// publish pending streamed reviews, close the WAL and seal its write side.
func (s *Server) Shutdown(ctx context.Context) error {
	s.c.Observer().Telemetry().Health().MarkShutdown()
	var err error
	if s.srv != nil {
		dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
		err = s.srv.Shutdown(dctx)
	}
	s.drained.Store(true)
	return err
}

// post wraps a JSON handler with the transport checks shared by every API
// endpoint: POST only, body-size cap, and traceparent ingestion. The inner
// handler sees a request whose context joins the caller's trace, so the wide
// event the facade emits carries the propagated trace ID.
func (s *Server) post(h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tr, err := obs.ParseTraceparent(tp); err == nil {
				r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
				w.Header().Set("traceparent", tp)
			}
		}
		h(w, r)
	}
}

// write wraps a write handler: once Shutdown has drained the server, the
// write is refused before its body is read.
func (s *Server) write(h func(w http.ResponseWriter, r *http.Request)) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.drained.Load() {
			httpError(w, http.StatusServiceUnavailable, "server is shut down")
			return
		}
		h(w, r)
	}
}

// decode unmarshals the request body into v, translating transport failures
// to their HTTP statuses: 413 for an over-limit body, 400 for bad JSON. A
// body is one JSON value — anything but whitespace after it is bad JSON, not
// a value to ignore. An empty body decodes as the zero value (so bodyless
// POSTs to /v1/reindex work).
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := err == nil
	if trailing {
		_, err = dec.Token() // io.EOF when nothing follows the value
	}
	if errors.Is(err, io.EOF) {
		return true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
	case trailing:
		httpError(w, http.StatusBadRequest, "bad JSON: trailing data")
	default:
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeErr maps a facade error to a status: a cancelled or timed-out request
// (the caller hung up, or the deadline passed mid-rank) and a write refused
// because the client is shut down are 503, everything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, saccs.ErrShutdown) {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, err.Error())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// QueryRequest is the /v1/query body. TopK and ThetaFilter override the
// client's config for this request only when present.
type QueryRequest struct {
	Utterance   string   `json:"utterance"`
	TopK        *int     `json:"top_k,omitempty"`
	ThetaFilter *float64 `json:"theta_filter,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Utterance == "" {
		httpError(w, http.StatusBadRequest, "utterance required")
		return
	}
	resp, err := s.c.QueryCtx(r.Context(), req.Utterance, saccs.QueryOptions{TopK: req.TopK, ThetaFilter: req.ThetaFilter})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, resp)
}

// ExtractRequest is the /v1/extract body.
type ExtractRequest struct {
	Text string `json:"text"`
}

// ExtractResponse is the /v1/extract answer.
type ExtractResponse struct {
	Tags []string `json:"tags"`
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req ExtractRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Text == "" {
		httpError(w, http.StatusBadRequest, "text required")
		return
	}
	tags, err := s.c.ExtractTagsCtx(r.Context(), req.Text)
	if err != nil {
		writeErr(w, err)
		return
	}
	if tags == nil {
		tags = []string{}
	}
	writeJSON(w, ExtractResponse{Tags: tags})
}

// AppendRequest is the /v1/append body: one review streamed into an entity.
// The optional metadata fields, when any is set, are registered durably
// before the review (so a crash-recovered entity keeps its identity).
type AppendRequest struct {
	EntityID string `json:"entity_id"`
	Review   string `json:"review"`
	Name     string `json:"name,omitempty"`
	City     string `json:"city,omitempty"`
	Cuisine  string `json:"cuisine,omitempty"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !decode(w, r, &req) {
		return
	}
	if req.EntityID == "" || req.Review == "" {
		httpError(w, http.StatusBadRequest, "entity_id and review required")
		return
	}
	if req.Name != "" || req.City != "" || req.Cuisine != "" {
		e := saccs.Entity{ID: req.EntityID, Name: req.Name, City: req.City, Cuisine: req.Cuisine}
		if err := s.c.RegisterEntityCtx(r.Context(), e); err != nil {
			writeErr(w, err)
			return
		}
	}
	if err := s.c.AppendReviewCtx(r.Context(), req.EntityID, req.Review); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// RegisterRequest is the /v1/register body: entity metadata without reviews.
type RegisterRequest struct {
	EntityID string `json:"entity_id"`
	Name     string `json:"name,omitempty"`
	City     string `json:"city,omitempty"`
	Cuisine  string `json:"cuisine,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	if req.EntityID == "" {
		httpError(w, http.StatusBadRequest, "entity_id required")
		return
	}
	e := saccs.Entity{ID: req.EntityID, Name: req.Name, City: req.City, Cuisine: req.Cuisine}
	if err := s.c.RegisterEntityCtx(r.Context(), e); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

// ReindexResponse is the /v1/reindex answer: the unknown tags drained from
// the history into the index.
type ReindexResponse struct {
	Added []string `json:"added"`
}

func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	var req struct{}
	if !decode(w, r, &req) {
		return
	}
	added, err := s.c.ReindexCtx(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	if added == nil {
		added = []string{}
	}
	writeJSON(w, ReindexResponse{Added: added})
}
