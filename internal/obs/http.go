package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Health lifecycle states: a service starts not-ready, becomes ready when
// its first index snapshot generation is published, and turns permanently
// not-ready at shutdown.
const (
	healthStarting = iota
	healthReady
	healthShutdown
)

// Health is the readiness state machine behind /readyz. All methods are
// nil-safe and concurrent.
type Health struct {
	state atomic.Int32
}

// NewHealth returns a Health in the starting (not-ready) state.
func NewHealth() *Health { return &Health{} }

// MarkReady transitions starting → ready; it is a no-op after shutdown, so a
// late snapshot publication cannot resurrect a draining service.
func (h *Health) MarkReady() {
	if h != nil {
		h.state.CompareAndSwap(healthStarting, healthReady)
	}
}

// MarkShutdown makes the service permanently not-ready.
func (h *Health) MarkShutdown() {
	if h != nil {
		h.state.Store(healthShutdown)
	}
}

// Ready reports whether the service is serving.
func (h *Health) Ready() bool {
	return h != nil && h.state.Load() == healthReady
}

// State returns "starting", "ready", or "shutdown".
func (h *Health) State() string {
	if h == nil {
		return "starting"
	}
	switch h.state.Load() {
	case healthReady:
		return "ready"
	case healthShutdown:
		return "shutdown"
	default:
		return "starting"
	}
}

// ObserverMux returns the serving mux for an observer: /metrics (the
// registry in Prometheus text), the /debug/pprof profiling endpoints, /healthz
// (liveness: 200 whenever the process can serve HTTP), /readyz (readiness:
// 200 only between the first snapshot publication and shutdown; ready
// without telemetry), and /debug/slow (the worst-K slow-query log as JSON,
// slowest first). A nil observer serves an empty registry.
func ObserverMux(o *Observer) *http.ServeMux {
	var reg *Registry
	if o != nil {
		reg = o.Metrics
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tel := o.Telemetry()
		if tel == nil {
			_, _ = w.Write([]byte("ready\n"))
			return
		}
		h := tel.Health()
		if !h.Ready() {
			http.Error(w, h.State(), http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := o.Telemetry().SlowQueries()
		if events == nil {
			events = []Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
	return mux
}

// ServeObserver starts an HTTP server for ObserverMux(o) on addr (e.g.
// ":9090") in a background goroutine and returns it; the caller owns
// shutdown. Server.Addr is set to the bound address, so addr may use port 0.
func ServeObserver(addr string, o *Observer) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: ObserverMux(o)}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
