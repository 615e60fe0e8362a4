// Package distworker is the server half of the distributed scoring fleet
// (cmd/nexusw is the binary wrapper): it registers encoded datasets under
// their content fingerprints and executes distwire work units against them
// using the same core.Local scorer the coordinator runs in-process — the
// worker cannot drift from the oracle because it *is* the oracle, fed over
// the wire.
//
// Workers are stateless by design: the dataset store is a bounded LRU, and
// an evicted (or never-seen) fingerprint is answered with 404 "unknown
// dataset" so the coordinator re-registers and retries. For resilience
// testing the server injects faults on demand through the same
// internal/rpc middleware as kgserve: FailRate rejects /dist/v1/ requests
// with a seeded-deterministic HTTP 500, Latency delays them; /healthz is
// always honest.
package distworker

import (
	"container/list"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/core"
	"nexus/internal/distwire"
	"nexus/internal/obs"
	"nexus/internal/rpc"
)

// Config configures a Server.
type Config struct {
	// Parallelism bounds the scoring goroutines per work unit (default 1:
	// a fleet gets its parallelism from concurrent units across workers,
	// and a single-flight unit keeps per-request latency predictable).
	Parallelism int
	// MaxDatasets bounds the dataset LRU (default 8). Datasets hold the
	// full encoded input of a scoring context, so the cap is a memory
	// bound; eviction only costs the coordinator a re-registration.
	MaxDatasets int
	// MaxBatch rejects oversized score requests with 400 (default 1024
	// units).
	MaxBatch int
	// The rest configure the shared middleware (rpc.ServerConfig):
	// FailRate, Latency and Seed inject seeded faults into /dist/v1/
	// requests; Registry (nil: a private one) collects the /metrics
	// series; SlowThreshold and SlowKeep enable GET /debug/slow and the
	// SIGQUIT dump in cmd/nexusw.
	FailRate      float64
	Latency       time.Duration
	Seed          uint64
	Registry      *obs.Registry
	SlowThreshold time.Duration
	SlowKeep      int
}

// Server handles the distwire endpoints on the shared rpc middleware,
// which also provides Registry, SlowLog and Requests. Construct with New.
type Server struct {
	*rpc.Server
	cfg   Config
	local core.Local
	store *store
	units atomic.Int64
}

// New returns a worker server for cfg.
func New(cfg Config) *Server {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.MaxDatasets <= 0 {
		cfg.MaxDatasets = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	return &Server{
		Server: rpc.NewServer(rpc.ServerConfig{
			Name: "nexusw", FailRate: cfg.FailRate, Latency: cfg.Latency, Seed: cfg.Seed,
			Registry: cfg.Registry, SlowThreshold: cfg.SlowThreshold, SlowKeep: cfg.SlowKeep,
		}),
		cfg:   cfg,
		local: core.Local{Parallelism: cfg.Parallelism},
		store: newStore(cfg.MaxDatasets),
	}
}

// Handler returns the HTTP handler serving the distwire protocol plus the
// rpc operational routes (/metrics, /debug/slow, /healthz).
func (s *Server) Handler() http.Handler {
	return s.Mux(
		rpc.Route{Pattern: "POST " + distwire.PathDataset, Label: "dataset", Handler: s.handleDataset, Protocol: true},
		rpc.Route{Pattern: "POST " + distwire.PathScore, Label: "score", Handler: s.handleScore, Protocol: true},
		rpc.Route{Pattern: "GET " + distwire.PathStats, Label: "stats", Handler: s.handleStats},
	)
}

// Stats returns the per-endpoint request counts, injected faults, datasets
// held and units executed so far.
func (s *Server) Stats() distwire.StatsResponse {
	return distwire.StatsResponse{
		Requests: s.RequestCounts(),
		Injected: s.Injected(),
		Datasets: s.store.len(),
		Units:    s.units.Load(),
	}
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	var req distwire.RegisterRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	if err := req.Dataset.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.store.put(&req.Dataset)
	s.WriteJSON(w, distwire.RegisterResponse{Rows: req.Dataset.Rows(), Cols: len(req.Dataset.Cols)})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req distwire.ScoreRequest
	if !rpc.Decode(w, r, &req) {
		return
	}
	if len(req.Units) > s.cfg.MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d units exceeds limit %d", len(req.Units), s.cfg.MaxBatch), http.StatusBadRequest)
		return
	}
	d, ok := s.store.get(req.Fingerprint)
	if !ok {
		http.Error(w, "unknown dataset "+req.Fingerprint, http.StatusNotFound)
		return
	}
	resp := distwire.ScoreResponse{Results: make([]distwire.UnitResult, len(req.Units))}
	for i := range req.Units {
		res, err := s.exec(r.Context(), d, &req.Units[i])
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nothing to say
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp.Results[i] = res
	}
	s.units.Add(int64(len(req.Units)))
	s.WriteJSON(w, resp)
}

// exec runs one work unit through the in-process oracle.
func (s *Server) exec(ctx context.Context, d *dataset, u *distwire.Unit) (distwire.UnitResult, error) {
	if err := u.Validate(d.wire); err != nil {
		return distwire.UnitResult{}, err
	}
	switch u.Kind {
	case distwire.KindRelevance:
		vals, err := s.local.Relevance(ctx, d.sctx, u.Cands)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Values: vals}, nil
	case distwire.KindPerm:
		spec := core.PermSpec{
			Cand: u.Cand, Op: core.PermOp(u.Op), Observed: u.Observed,
			Seeds: u.Seeds, Allow: u.Allow,
		}
		if u.Given != nil {
			spec.Given = u.Given.ToEncoded()
		}
		exceed, ran, err := s.local.PermBlock(ctx, d.sctx, spec)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Exceed: exceed, Ran: ran}, nil
	default: // KindSubgroup; Validate rejected everything else
		specs := make([]core.GroupSpec, len(u.Groups))
		for i, g := range u.Groups {
			conds := make([]core.GroupCond, len(g.Conds))
			for j, c := range g.Conds {
				conds[j] = core.GroupCond{Attr: c.Attr, Code: c.Code}
			}
			specs[i] = core.GroupSpec{Conds: conds}
		}
		vals, err := s.local.SubgroupBatch(ctx, d.gc, specs)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Values: vals}, nil
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, s.Stats())
}

// Serve runs the handler on ln until ctx is cancelled, then shuts down
// gracefully (bounded by drainTimeout).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	return rpc.Serve(ctx, ln, s.Handler(), drainTimeout)
}

// dataset is a registered dataset with its decoded scoring contexts.
type dataset struct {
	wire *distwire.Dataset
	sctx *core.ScoreContext
	gc   *core.GroupContext
}

// store is a mutex-guarded LRU of registered datasets keyed by fingerprint.
type store struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent; values are *dataset
	byFP  map[string]*list.Element // fingerprint → element
}

func newStore(cap int) *store {
	return &store{cap: cap, order: list.New(), byFP: make(map[string]*list.Element)}
}

func (st *store) put(d *distwire.Dataset) {
	sctx, gc := d.Contexts()
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byFP[d.Fingerprint]; ok {
		el.Value = &dataset{wire: d, sctx: sctx, gc: gc}
		st.order.MoveToFront(el)
		return
	}
	st.byFP[d.Fingerprint] = st.order.PushFront(&dataset{wire: d, sctx: sctx, gc: gc})
	for st.order.Len() > st.cap {
		last := st.order.Back()
		st.order.Remove(last)
		delete(st.byFP, last.Value.(*dataset).wire.Fingerprint)
	}
}

func (st *store) get(fp string) (*dataset, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byFP[fp]
	if !ok {
		return nil, false
	}
	st.order.MoveToFront(el)
	return el.Value.(*dataset), true
}

func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}
