// Command kgd serves a knowledge graph over HTTP using the kgwire
// protocol, so nexus and nexusd can extract against a remote graph
// (-kg http://host:port) instead of an in-process one.
//
//	POST /kg/v1/resolve      batch entity resolution
//	POST /kg/v1/entities     batch entity records
//	POST /kg/v1/properties   batch property maps
//	POST /kg/v1/class-props  class property universe
//	GET  /kg/v1/stats        per-endpoint request counters
//	GET  /metrics            Prometheus text exposition (prefix kgd_)
//	GET  /debug/slow         slowest captured requests (with -slow-threshold)
//	GET  /healthz            liveness (never fault-injected)
//
// Usage:
//
//	kgd -seed 11 -addr :7070
//	kgd -seed 11 -addr :7070 -fail-rate 0.2 -latency 5ms   # resilience testing
//	kgd -seed 11 -addr :7070 -debug-addr 127.0.0.1:7071    # pprof sidecar
//
// -fail-rate injects deterministic (seeded) HTTP 500s and -latency adds a
// fixed delay per request, to exercise the client's retry and batching
// under realistic network behavior. -debug-addr serves net/http/pprof
// (plus /metrics and /debug/slow) on a separate, typically loopback-only
// listener; with -slow-threshold set, SIGQUIT dumps the captured slow
// requests as JSONL to stderr without stopping the process. See
// docs/API.md for the wire protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nexus/internal/httpdebug"
	"nexus/internal/kg"
	"nexus/internal/kgserve"
)

func main() {
	err := run(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kgd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr         = fs.String("addr", ":7070", "listen address")
		seed         = fs.Uint64("seed", 11, "world seed (must match the client's -seed for name-identical graphs)")
		failRate     = fs.Float64("fail-rate", 0, "probability of rejecting a request with HTTP 500 (fault injection)")
		latency      = fs.Duration("latency", 0, "artificial delay per request (fault injection)")
		faultSeed    = fs.Uint64("fault-seed", 1, "RNG seed for fault injection")
		maxBatch     = fs.Int("max-batch", 65536, "reject larger batch requests with 400")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof, /metrics and /debug/slow on this extra address (keep it loopback-only)")
		slowThresh   = fs.Duration("slow-threshold", 0, "capture requests at least this slow on /debug/slow (0 = off)")
		slowKeep     = fs.Int("slow-keep", 32, "retain this many slowest captured requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failRate < 0 || *failRate >= 1 {
		return fmt.Errorf("-fail-rate must be in [0,1), got %g", *failRate)
	}

	log.Printf("generating knowledge graph (seed %d)...", *seed)
	world := kg.NewWorld(kg.WorldConfig{Seed: *seed})
	log.Printf("graph ready: %d entities, %d triples", world.Graph.NumEntities(), world.Graph.NumTriples())
	if *failRate > 0 || *latency > 0 {
		log.Printf("fault injection: fail-rate %g, latency %s (seed %d)", *failRate, *latency, *faultSeed)
	}

	srv := kgserve.New(kgserve.Config{
		Source:        world.Graph,
		FailRate:      *failRate,
		Latency:       *latency,
		Seed:          *faultSeed,
		MaxBatch:      *maxBatch,
		SlowThreshold: *slowThresh,
		SlowKeep:      *slowKeep,
	})

	if srv.SlowLog() != nil {
		defer httpdebug.DumpSlowOnSIGQUIT(srv.SlowLog(), os.Stderr)()
	}
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: httpdebug.Mux(srv.Registry(), "kgd", srv.SlowLog())}
		go func() {
			log.Printf("debug listener (pprof, /metrics, /debug/slow) on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	// Bind before logging so "-addr :0" reports the actual port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	if err := srv.Serve(ctx, ln, *drainTimeout); err != nil {
		return err
	}
	log.Printf("drained, bye")
	return nil
}
