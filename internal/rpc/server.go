package rpc

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/httpdebug"
	"nexus/internal/obs"
	"nexus/internal/stats"
)

// Counter names on the server registry's counter set, exposed on /metrics
// as <name>_faults_injected_total and <name>_encode_errors_total.
const (
	// CtrInjected counts injected faults.
	CtrInjected = "faults_injected"
	// CtrEncodeErrors counts replies whose JSON encoding failed mid-write.
	CtrEncodeErrors = "encode_errors"
)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Name prefixes the /metrics exposition ("kgd", "nexusw").
	Name string
	// FailRate is the probability in [0,1) that a protocol request is
	// rejected with HTTP 500 before reaching its handler. Latency is an
	// artificial delay added to every protocol request (cut short if the
	// client gives up). Seed seeds the fault RNG (default 1), so the same
	// request sequence sees the same faults.
	FailRate float64
	Latency  time.Duration
	Seed     uint64
	// Registry collects the serving metrics rendered at /metrics. Nil
	// builds a private registry.
	Registry *obs.Registry
	// SlowThreshold enables slow-request capture (GET /debug/slow):
	// requests at or over it compete for the SlowKeep (default 32)
	// slowest slots. Zero disables capture.
	SlowThreshold time.Duration
	SlowKeep      int
}

// Server is the serving half shared by kgd and nexusw: the middleware, the
// operational routes and the body codecs. Protocol packages embed it.
type Server struct {
	cfg      ServerConfig
	slow     *obs.SlowLog
	inFlight *obs.Gauge

	mu  sync.Mutex // guards rng
	rng *stats.RNG

	injected atomic.Int64
	reqs     sync.Map // path → *atomic.Int64
}

// NewServer returns a Server for cfg.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry(nil)
	}
	if cfg.SlowKeep <= 0 {
		cfg.SlowKeep = 32
	}
	return &Server{
		cfg:      cfg,
		slow:     obs.NewSlowLog(cfg.SlowThreshold, cfg.SlowKeep),
		inFlight: cfg.Registry.Gauge("requests_in_flight"),
		rng:      stats.NewRNG(cfg.Seed),
	}
}

// Registry exposes the server's metric registry (rendered at /metrics).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// SlowLog exposes the slow-request capture (nil when disabled), e.g. for a
// SIGQUIT dump.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Injected returns the number of faults injected so far.
func (s *Server) Injected() int64 { return s.injected.Load() }

// Requests returns the request count recorded for one protocol path.
func (s *Server) Requests(path string) int64 {
	if v, ok := s.reqs.Load(path); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// RequestCounts returns the request count of every protocol path seen.
func (s *Server) RequestCounts() map[string]int64 {
	out := make(map[string]int64)
	s.reqs.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Route is one endpoint for Mux.
type Route struct {
	Pattern string // ServeMux pattern, e.g. "POST /kg/v1/resolve"
	Label   string // route label on http_request_seconds
	Handler http.HandlerFunc
	// Protocol routes are counted per path and subject to fault
	// injection; the rest (stats) are always honest.
	Protocol bool
}

// Mux returns a handler serving routes plus GET /metrics, GET /debug/slow
// and GET /healthz (never fault-injected). Every route — /metrics itself
// included — is wrapped in the request-latency middleware, so
// http_request_seconds{route,outcome} covers the whole surface.
func (s *Server) Mux(routes ...Route) http.Handler {
	routes = append(routes,
		Route{Pattern: "GET /metrics", Label: "metrics", Handler: httpdebug.MetricsHandler(s.cfg.Registry, s.cfg.Name).ServeHTTP},
		Route{Pattern: "GET /debug/slow", Label: "slow", Handler: httpdebug.SlowHandler(s.slow).ServeHTTP},
		Route{Pattern: "GET /healthz", Label: "healthz", Handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, "ok\n")
		}},
	)
	mux := http.NewServeMux()
	for _, rt := range routes {
		h := rt.Handler
		if rt.Protocol {
			h = s.fault(h)
		}
		mux.Handle(rt.Pattern, httpdebug.Instrument(s.cfg.Registry, "http_request_seconds", rt.Label, s.observe(h)))
	}
	return mux
}

// observe tracks in-flight requests and offers every finished request to
// the slow log (which keeps only over-threshold ones). Protocol handlers
// are thin batch loops with no span tree, so slow entries carry the
// method, path and wall clock but no trace events.
func (s *Server) observe(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Inc()
		defer s.inFlight.Dec()
		start := time.Now()
		h(w, r)
		if s.slow != nil {
			s.slow.Record(obs.SlowEntry{
				ID:    r.Method + " " + r.URL.Path,
				Start: start,
				DurNS: int64(time.Since(start)),
			})
		}
	}
}

// fault wraps a protocol handler with request counting, the artificial
// latency and the seeded probabilistic 500s.
func (s *Server) fault(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.reqs.Load(r.URL.Path)
		if !ok {
			v, _ = s.reqs.LoadOrStore(r.URL.Path, new(atomic.Int64))
		}
		v.(*atomic.Int64).Add(1)
		if s.cfg.Latency > 0 {
			t := time.NewTimer(s.cfg.Latency)
			select {
			case <-r.Context().Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if s.cfg.FailRate > 0 {
			s.mu.Lock()
			fail := s.rng.Float64() < s.cfg.FailRate
			s.mu.Unlock()
			if fail {
				s.injected.Add(1)
				s.cfg.Registry.Counters().Add(CtrInjected, 1)
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
		}
		h(w, r)
	}
}

// Decode reads a JSON request body into v, replying 400 and returning
// false on malformed input. The 64 MiB cap fits a registered dataset,
// which carries full encoded columns.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		http.Error(w, "invalid request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON writes v as the 200 reply. Encoding can fail after part of the
// body is on the wire (client gone, marshal error), where no error reply is
// possible any more, so the failure is counted (CtrEncodeErrors) and
// logged (standard logger) instead of dropped.
func (s *Server) WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Registry.Counters().Add(CtrEncodeErrors, 1)
		log.Printf("%s: encoding reply: %v", s.cfg.Name, err)
	}
}

// Serve runs h on ln until ctx is cancelled, then shuts down gracefully,
// waiting at most drain for in-flight requests.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return hs.Shutdown(sctx)
}
