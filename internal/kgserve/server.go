// Package kgserve exposes any kg.Source over the kgwire HTTP protocol —
// the server half of the remote knowledge-graph backend (cmd/kgd is the
// binary wrapper). Each endpoint decodes a batch request, answers it from
// the wrapped source, and replies with index-aligned JSON.
//
// For resilience testing the server injects faults on demand: FailRate is
// the probability that a request is rejected with HTTP 500 before touching
// the source, and Latency is a fixed artificial delay per request (both
// applied to the /kg/v1/ endpoints only — /healthz is always honest). The
// fault RNG is seeded, so a given request sequence fails deterministically.
// The middleware is internal/rpc's, shared with the scoring worker.
package kgserve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"nexus/internal/kg"
	"nexus/internal/kgwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// Config configures a Server.
type Config struct {
	// Source is the knowledge graph to serve. Required.
	Source kg.Source
	// MaxBatch rejects oversized batch requests with 400 (default 65536).
	MaxBatch int
	// The rest configure the shared middleware (rpc.ServerConfig):
	// FailRate, Latency and Seed inject seeded faults into /kg/v1/
	// requests; Registry (nil: a private one) collects the /metrics
	// series; SlowThreshold and SlowKeep enable GET /debug/slow and the
	// SIGQUIT dump in cmd/kgd.
	FailRate      float64
	Latency       time.Duration
	Seed          uint64
	Registry      *obs.Registry
	SlowThreshold time.Duration
	SlowKeep      int
}

// Server handles the kgwire endpoints on the shared rpc middleware, which
// also provides Registry, SlowLog and Requests. Construct with New.
type Server struct {
	*rpc.Server
	cfg Config
}

// New returns a server for cfg.Source.
func New(cfg Config) *Server {
	if cfg.Source == nil {
		panic("kgserve: Config.Source is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 65536
	}
	return &Server{
		Server: rpc.NewServer(rpc.ServerConfig{
			Name: "kgd", FailRate: cfg.FailRate, Latency: cfg.Latency, Seed: cfg.Seed,
			Registry: cfg.Registry, SlowThreshold: cfg.SlowThreshold, SlowKeep: cfg.SlowKeep,
		}),
		cfg: cfg,
	}
}

// Handler returns the HTTP handler serving the kgwire protocol plus the
// rpc operational routes (/metrics, /debug/slow, /healthz).
func (s *Server) Handler() http.Handler {
	return s.Mux(
		rpc.Route{Pattern: "POST " + kgwire.PathResolve, Label: "resolve", Handler: s.handleResolve, Protocol: true},
		rpc.Route{Pattern: "POST " + kgwire.PathEntities, Label: "entities", Handler: s.handleEntities, Protocol: true},
		rpc.Route{Pattern: "POST " + kgwire.PathProperties, Label: "properties", Handler: s.handleProperties, Protocol: true},
		rpc.Route{Pattern: "POST " + kgwire.PathClassProps, Label: "classprops", Handler: s.handleClassProps, Protocol: true},
		rpc.Route{Pattern: "GET " + kgwire.PathStats, Label: "stats", Handler: s.handleStats},
	)
}

// Stats returns the per-endpoint request counts and the number of
// injected faults so far.
func (s *Server) Stats() kgwire.StatsResponse {
	return kgwire.StatsResponse{Requests: s.RequestCounts(), Injected: s.Injected()}
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req kgwire.ResolveRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	if len(req.Values) > s.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Values), s.cfg.MaxBatch), http.StatusBadRequest)
		return
	}
	links, err := s.cfg.Source.Resolve(r.Context(), req.Values)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := kgwire.ResolveResponse{Links: make([]kgwire.Link, len(links))}
	for i, l := range links {
		resp.Links[i] = kgwire.FromLink(l)
	}
	s.WriteJSON(w, resp)
}

func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	var req kgwire.EntitiesRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	if len(req.IDs) > s.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.IDs), s.cfg.MaxBatch), http.StatusBadRequest)
		return
	}
	ids := make([]kg.EntityID, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = kg.EntityID(id)
	}
	ents, err := s.cfg.Source.Entities(r.Context(), ids)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := kgwire.EntitiesResponse{Entities: make([]kgwire.Entity, len(ents))}
	for i, e := range ents {
		resp.Entities[i] = kgwire.FromEntity(e)
	}
	s.WriteJSON(w, resp)
}

func (s *Server) handleProperties(w http.ResponseWriter, r *http.Request) {
	var req kgwire.PropertiesRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	if len(req.IDs) > s.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.IDs), s.cfg.MaxBatch), http.StatusBadRequest)
		return
	}
	ids := make([]kg.EntityID, len(req.IDs))
	for i, id := range req.IDs {
		ids[i] = kg.EntityID(id)
	}
	props, err := s.cfg.Source.GetProperties(r.Context(), ids, req.Props)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := kgwire.PropertiesResponse{Props: make([]kgwire.Props, len(props))}
	for i, p := range props {
		resp.Props[i] = kgwire.FromProps(p)
	}
	s.WriteJSON(w, resp)
}

func (s *Server) handleClassProps(w http.ResponseWriter, r *http.Request) {
	var req kgwire.ClassPropsRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	props, err := s.cfg.Source.ClassProps(r.Context(), req.Class)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.WriteJSON(w, kgwire.ClassPropsResponse{Props: props})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, s.Stats())
}

// Serve runs the handler on ln until ctx is cancelled, then shuts down
// gracefully (bounded by drainTimeout).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	return rpc.Serve(ctx, ln, s.Handler(), drainTimeout)
}
