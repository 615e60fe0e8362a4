package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"nexus"
	"nexus/internal/harness"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/reportcache"
	"nexus/internal/server"
	"nexus/internal/subgroups"
	"nexus/internal/userstudy"
	"nexus/internal/workload"
)

const (
	// serveRate is the open-loop arrival rate of phase 1, requests/s.
	serveRate = 20.0
	// serveConns bounds the client's keep-alive connections: one per CPU
	// of the 2-CPU machine the bounds were set on.
	serveConns = 2
	// serveWorkers is nexusd's worker pool size.
	serveWorkers = 2
	// serveSubgroups is the k every serve request asks for.
	serveSubgroups = 3
	// oneOffFrac is the share of phase-1 requests that carry a unique tau:
	// a report-cache miss that still hits the extraction cache.
	oneOffFrac = 0.05
	// batchFrac is the share of requests sent at batch priority.
	batchFrac = 0.3
)

// shape is one distinct request body.
type shape struct {
	SQL       string  `json:"sql"`
	Subgroups int     `json:"subgroups"`
	Tau       float64 `json:"tau,omitempty"`
	Priority  string  `json:"priority,omitempty"`

	key string
	gt  userstudy.GroundTruth
	hot bool
}

// sample is one request's outcome.
type sample struct {
	shape   *shape
	due     time.Time
	lag     time.Duration // sent − due
	latDue  time.Duration // done − due
	latSend time.Duration // done − sent
	status  int
	cache   string
	body    []byte
	err     error
}

// serveEnv is the in-process nexusd and its client.
type serveEnv struct {
	w      *kg.World
	ds     []*workload.Dataset
	ctrs   *obs.Counters
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func (e *serveEnv) close() {
	e.cancel()
	<-e.done
	e.client.CloseIdleConnections()
}

func startServe() (*serveEnv, error) {
	w := newWorld()
	sc := harness.TestScale()
	ds := []*workload.Dataset{
		workload.Forbes(w, workload.Config{Rows: sc.ForbesRows, Seed: dataSeed + 4}),
		workload.Covid(w, workload.Config{Rows: sc.CovidRows, Seed: dataSeed + 2}),
		workload.StackOverflow(w, workload.Config{Rows: sc.SORows, Seed: dataSeed + 1}),
	}
	ctrs := obs.NewCounters()
	sess := nexus.NewSession(w.Graph, &nexus.Options{Metrics: ctrs, ExtractCache: nexus.NewExtractionCache(ctrs)})
	for _, d := range ds {
		sess.RegisterTable(d.Name, d.Table, d.LinkColumns...)
		sess.ExcludeCandidates(d.Name, d.ExcludeCandidates...)
	}
	srv := server.New(server.Config{
		Session:     sess,
		Workers:     serveWorkers,
		ReportCache: reportcache.New(reportcache.Config{Counters: ctrs}),
		Metrics:     ctrs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &serveEnv{
		w: w, ds: ds, ctrs: ctrs,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}, Timeout: time.Minute},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { e.done <- srv.Serve(ctx, ln, 10*time.Second) }()
	return e, nil
}

// hotShapes are the user-study queries over the served datasets.
func hotShapes(e *serveEnv) []*shape {
	served := map[string]bool{}
	for _, d := range e.ds {
		served[d.Name] = true
	}
	var out []*shape
	for _, q := range harness.Queries() {
		if served[q.Dataset] {
			out = append(out, &shape{SQL: q.SQL, Subgroups: serveSubgroups, key: q.Key(), gt: q.GT, hot: true})
		}
	}
	return out
}

// send issues one request for s and waits for the answer. due is when the
// schedule wanted it sent.
func (e *serveEnv) send(ctx context.Context, tr *Tracer, s *shape, due time.Time, req string) sample {
	sent := time.Now()
	out := sample{shape: s, due: due, lag: sent.Sub(due)}
	body, _ := json.Marshal(s)
	ctx, end := tr.Start(ctx, "request", req)
	defer end()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	resp, err := e.client.Do(hreq)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		out.cache = resp.Header.Get(server.CacheHeader)
	}
	done := time.Now()
	out.err = err
	out.latDue, out.latSend = done.Sub(due), done.Sub(sent)
	return out
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// refused reports a 429 (queue full, shed) or 503 (draining).
func (s sample) refused() bool {
	return s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable
}

// openLoop sends the schedule's requests at their due times, whatever the
// state of earlier ones, and waits for all of them.
func (e *serveEnv) openLoop(ctx context.Context, tr *Tracer, sched []arrival, tag string) []sample {
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			out[i] = e.send(ctx, tr, a.s, due, fmt.Sprintf("%s/r%d", tag, i))
		}(i, a)
	}
	wg.Wait()
	return out
}

// closedLoop keeps serveConns clients busy with hot shapes for d and
// returns every completed request.
func (e *serveEnv) closedLoop(ctx context.Context, hot []*shape, weights []float64, seed uint64, d time.Duration) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*31 + int64(c)))
			for time.Now().Before(stop) {
				s := e.send(ctx, nil, hot[pick(rng, weights)], time.Now(), "")
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

type arrival struct {
	at time.Duration
	s  *shape
}

// schedule draws phase 1's Poisson arrivals at serveRate over d: a skewed
// mix of hot shapes plus a tail of one-off shapes (a hot SQL with a tau no
// other request uses). nextTau makes every one-off unique across phases.
func schedule(rng *rand.Rand, hot []*shape, weights []float64, d time.Duration, nextTau func() float64) []arrival {
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			return out
		}
		base := hot[pick(rng, weights)]
		s := *base
		if rng.Float64() < oneOffFrac {
			s.Tau = nextTau()
			s.hot = false
			s.key = fmt.Sprintf("%s tau=%g", base.key, s.Tau)
		}
		if rng.Float64() < batchFrac {
			s.Priority = "batch"
		}
		out = append(out, arrival{t, &s})
	}
}

// zipf returns weights ∝ 1/(rank+1) for n shapes.
func zipf(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

func pick(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	x := rng.Float64() * total
	for i, v := range w {
		if x < v {
			return i
		}
		x -= v
	}
	return len(w) - 1
}

// jobTimes reads queue_wait_ms and run_ms from GET /v1/jobs/{id} for every
// job id in (from, to] that exists and has finished, and returns the highest
// id it found (from when none).
func (e *serveEnv) jobTimes(ctx context.Context, from, to int) (wait, run []float64, last int, err error) {
	last = from
	for id := from + 1; id <= to; id++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/j%d", e.url, id), nil)
		if err != nil {
			return nil, nil, last, err
		}
		resp, err := e.client.Do(req)
		if err != nil {
			return nil, nil, last, err
		}
		var st server.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue // refused at admission
		}
		if derr != nil {
			return nil, nil, last, fmt.Errorf("job j%d: %w", id, derr)
		}
		last = id
		if st.QueueWaitMS != nil && st.RunMS != nil {
			wait = append(wait, *st.QueueWaitMS)
			run = append(run, *st.RunMS)
		}
	}
	return wait, run, last, nil
}

// serve drives an in-process nexusd over loopback: phase 1 is an open loop
// at serveRate timed from each request's due time, phase 2 a closed loop
// at serveConns connections for saturation.
func serve(ctx context.Context, r *run) error {
	e, err := setupTimes(r, func() (*serveEnv, error) { return startServe() }, func(e *serveEnv) { e.close() })
	if err != nil {
		return err
	}
	defer e.close()
	hot := hotShapes(e)
	weights := zipf(len(hot))
	rng := rand.New(rand.NewSource(int64(r.seed)))
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	tau := 0
	nextTau := func() float64 { tau++; return 0.25 + 0.001*float64(tau) }

	// Warm-up: one request per hot shape fills both caches, as on a daemon
	// that has been up for a while. Not timed.
	jobs := 0
	for _, s := range hot {
		if smp := e.send(ctx, nil, s, time.Now(), ""); !smp.ok() {
			return fmt.Errorf("warm-up %s: status %d %v %s", s.key, smp.status, smp.err, smp.body)
		}
		jobs++
	}

	p1 := r.seconds * 6 / 10
	p2 := r.seconds - p1
	var all []sample
	phase := func(tr *Tracer, tag string) ([]sample, map[string]int64, []float64, []float64, error) {
		before := e.ctrs.Snapshot()
		smp := e.openLoop(ctx, tr, schedule(rng, hot, weights, p1, nextTau), tag)
		delta := map[string]int64{}
		for k, v := range e.ctrs.Snapshot() {
			delta[k] = v - before[k]
		}
		wait, run, last, err := e.jobTimes(ctx, jobs, jobs+len(smp))
		jobs = last
		all = append(all, smp...)
		return smp, delta, wait, run, err
	}
	s1, d1, wait, run, err := phase(nil, "p1")
	if err != nil {
		return err
	}
	var traced []sample
	if r.trace {
		if traced, _, _, _, err = phase(r.tr, "p1traced"); err != nil {
			return err
		}
		// The fingerprint every request pays: Session.ReportKey per shape.
		pctx, end := r.tr.Start(ctx, "pass", "report-key")
		ks := keySession(e)
		seen := map[string]bool{}
		n := 0
		for _, smp := range append(s1, traced...) {
			if seen[smp.shape.key] {
				continue
			}
			seen[smp.shape.key] = true
			_, endK := r.tr.Start(pctx, "report-key", "")
			_, err := ks.ReportKey(smp.shape.SQL, smp.shape.Subgroups, smp.shape.Tau)
			endK()
			if err != nil {
				end()
				return err
			}
			n++
		}
		end()
		layers := layerTimes(r.tr.Spans(), "pass")
		r.set("report-key.ms", layers["report-key"]/float64(n), n)
	}
	u0 := readUsage()
	s2 := e.closedLoop(ctx, hot, weights, r.seed, p2)
	cost := readUsage().sub(u0)
	all = append(all, s2...)
	for _, smp := range all {
		r.op(smp.ok())
	}
	for _, ph := range []struct {
		name string
		ss   []sample
	}{{"phase1", s1}, {"phase1_traced", traced}, {"phase2", s2}} {
		var ok, refused int
		for _, smp := range ph.ss {
			switch {
			case smp.ok():
				ok++
			case smp.refused():
				refused++
			}
		}
		r.set(ph.name+".sent", float64(len(ph.ss)), 0)
		r.set(ph.name+".succeeded", float64(ok), 0)
		r.set(ph.name+".refused", float64(refused), 0)
		r.set(ph.name+".failed", float64(len(ph.ss)-ok-refused), 0)
	}
	if err := checkBodies(e, all, r); err != nil {
		return err
	}

	lat := func(ss []sample, keep func(sample) bool, f func(sample) time.Duration) []float64 {
		var out []float64
		for _, s := range ss {
			if keep(s) {
				out = append(out, ms(f(s)))
			}
		}
		return out
	}
	due := func(s sample) time.Duration { return s.latDue }
	okOnly := func(s sample) bool { return s.ok() }
	p1lat := lat(s1, okOnly, due)
	p50, n := percentile(p1lat, 50)
	r.set("query_p50_ms", p50, n)
	r.set("query_gmean_ms", gmean(p1lat), n)
	if !r.trace {
		r.set("queries_per_s", float64(countOK(s2))/p2.Seconds(), len(s2))
		r.setCost(cost, countOK(s2))
		return nil
	}
	set := func(name string, xs []float64, p float64) {
		v, n := percentile(xs, p)
		if n == 0 {
			v = 0
		}
		r.set(name, v, n)
	}
	set("serve_p99_ms", lat(s1, okOnly, due), 99)
	set("hit_p50_ms", lat(s1, func(s sample) bool { return s.ok() && s.cache == "hit" }, due), 50)
	misses := lat(s1, func(s sample) bool { return s.ok() && s.cache == "miss" }, func(s sample) time.Duration { return s.latSend })
	set("miss_p50_ms", lat(s1, func(s sample) bool { return s.ok() && s.cache == "miss" }, due), 50)
	set("server.queue_wait_p50_ms", wait, 50)
	set("server.queue_wait_p99_ms", wait, 99)
	set("server.run_p50_ms", run, 50)
	if len(misses) > 0 && len(run) > 0 {
		r.set("http.overhead_ms", median(misses)-median(wait)-median(run), len(misses))
	}
	set("loadgen.lag_p99_ms", lat(s1, func(sample) bool { return true }, func(s sample) time.Duration { return s.lag }), 99)
	hits, miss, shared := d1[obs.ReportCacheHits], d1[obs.ReportCacheMisses], d1[obs.ReportCacheShared]
	r.set("report-cache.hit_ratio", ratio(int(hits), int(hits+miss+shared)), 0)
	r.set("report-cache.misses", float64(miss), 0)
	r.set("report-cache.shared", float64(shared), 0)
	r.set("server.shed", float64(d1[server.CtrShedBatch]), 0)
	r.set("server.rejected", float64(d1[server.CtrRejected]), 0)
	r.set("trace.overhead_ms", median(lat(traced, okOnly, due))-median(lat(s1, okOnly, due)), len(traced))
	q, n := 0.0, 0
	for _, s := range hot {
		var resp server.ExplainResponse
		for _, smp := range s1 {
			if smp.shape.key == s.key && smp.ok() {
				if err := json.Unmarshal(smp.body, &resp); err == nil {
					var names []string
					for _, a := range resp.Attributes {
						names = append(names, a.Name)
					}
					q += s.gt.Quality(names)
					n++
				}
				break
			}
		}
	}
	if n > 0 {
		r.set("gt_quality", q/float64(n), n)
	}
	return nil
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok() {
			n++
		}
	}
	return n
}

// keySession is a session over the serve workload's inputs (the world
// graph and the three tables), the same fingerprint inputs the server's
// session has. It times Session.ReportKey from outside the server and
// computes the reference bodies.
func keySession(e *serveEnv) *nexus.Session {
	sess := nexus.NewSession(e.w.Graph, nil)
	for _, d := range e.ds {
		sess.RegisterTable(d.Name, d.Table, d.LinkColumns...)
		sess.ExcludeCandidates(d.Name, d.ExcludeCandidates...)
	}
	return sess
}

// checkBodies compares every 2xx body with the in-process reference for its
// shape: a fresh session over the same inputs, explained and searched
// directly, rendered in the server's response shape. Elapsed times are
// zeroed on both sides.
func checkBodies(e *serveEnv, all []sample, r *run) error {
	ref := keySession(e)
	reports := map[string]*nexus.Report{}
	want := map[string][]byte{}
	checked := map[string]bool{}
	for _, smp := range all {
		if !smp.ok() {
			continue
		}
		s := smp.shape
		wkey := fmt.Sprintf("%s|%d|%g", s.SQL, s.Subgroups, s.Tau)
		if _, ok := want[wkey]; !ok {
			rep := reports[s.SQL]
			if rep == nil {
				var err error
				if rep, err = ref.Explain(s.SQL); err != nil {
					return fmt.Errorf("reference %s: %w", s.key, err)
				}
				reports[s.SQL] = rep
			}
			groups, gst, err := rep.Subgroups(s.Subgroups, s.Tau)
			if err != nil {
				return fmt.Errorf("reference subgroups %s: %w", s.key, err)
			}
			want[wkey] = canonical(referenceResponse(rep, groups, gst.Explored))
		}
		if checked[wkey+"\x00"+string(smp.body)] {
			continue
		}
		checked[wkey+"\x00"+string(smp.body)] = true
		var got server.ExplainResponse
		if err := json.Unmarshal(smp.body, &got); err != nil {
			r.wrong("serve %s: undecodable body: %v", s.key, err)
			continue
		}
		if g := canonical(&got); !bytes.Equal(g, want[wkey]) {
			r.wrong("serve %s: body differs from the in-process reference:\n%s\nvs\n%s", s.key, g, want[wkey])
		}
	}
	return nil
}

func canonical(resp *server.ExplainResponse) []byte {
	c := *resp
	c.ElapsedMS = 0
	b, _ := json.MarshalIndent(&c, "", "  ")
	return b
}

// referenceResponse renders a report in the server's response shape.
func referenceResponse(rep *nexus.Report, groups []subgroups.Group, explored int) *server.ExplainResponse {
	ex := rep.Explanation
	resp := &server.ExplainResponse{
		Query:                 rep.Analysis.Query.String(),
		BaseScore:             ex.BaseScore,
		Score:                 ex.Score,
		ExplainedFraction:     rep.ExplainedFraction(),
		Attributes:            make([]server.ExplainAttr, 0, len(ex.Attrs)),
		Candidates:            len(rep.Analysis.Candidates),
		BiasedCandidates:      rep.Analysis.NumBiased(),
		Subgroups:             make([]server.SubgroupResult, 0, len(groups)),
		SubgroupNodesExplored: explored,
	}
	for _, a := range ex.Attrs {
		resp.Attributes = append(resp.Attributes, server.ExplainAttr{
			Name: a.Name, Origin: string(a.Origin), Hops: a.Hops, Relevance: a.Relevance, Responsibility: a.Responsibility,
		})
	}
	for _, g := range groups {
		resp.Subgroups = append(resp.Subgroups, server.SubgroupResult{Conditions: g.String(), Size: g.Size, Score: g.Score})
	}
	return resp
}
