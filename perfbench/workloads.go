package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"nexus"
	"nexus/internal/colstore"
	"nexus/internal/core"
	"nexus/internal/distremote"
	"nexus/internal/distworker"
	"nexus/internal/harness"
	"nexus/internal/kg"
	"nexus/internal/kgremote"
	"nexus/internal/kgserve"
	"nexus/internal/obs"
	"nexus/internal/userstudy"
	"nexus/internal/workload"
)

// worldSeed and dataSeed fix the knowledge graph and the generated rows, so
// every run does the same algorithmic work: drawing the rows from --seed
// moves a query's explain cost by about ±10% (which attributes MCIMR picks
// changes the rest of the pipeline), more than the benchmark's bounds can
// absorb. Query order is fixed too: the garbage one query leaves is
// collected during the next, and the first query of a remote pass fills
// the KG client's cache for the others. --seed seeds the RPC clients and
// draws the serve arrival schedule and request mix.
const (
	worldSeed = 1
	dataSeed  = 1
)

func newWorld() *kg.World { return kg.NewWorld(kg.WorldConfig{Seed: worldSeed}) }

// pipe accumulates what the three pipeline workloads (analyst, ingest,
// remote) measure: untraced query latencies and throughput, pass walls in
// both modes, and the traced layer statistics.
type pipe struct {
	r          *run
	ls         *layerStats
	queries    int // untraced queries completed
	wall       time.Duration
	cost       usage        // untraced passes
	passWall   [2][]float64 // [untraced, traced] pass walls, ms
	traced     int
	reportKeys int // Session.ReportKey calls timed
	want       map[string]queryOut
	quality    map[string]float64
	byKey      map[string][]float64 // untraced latencies per query, ms
}

func newPipe(r *run) *pipe {
	return &pipe{r: r, ls: newLayerStats(), want: map[string]queryOut{}, quality: map[string]float64{}, byKey: map[string][]float64{}}
}

// pipeQuery is one query of a pass.
type pipeQuery struct {
	key  string
	sql  string
	gt   userstudy.GroundTruth
	sess *nexus.Session
}

// pass runs one closed-loop pass. pre runs first inside the pass (it
// builds the sessions, and in ingest loads the CSV) and returns the
// queries. In a traced pass every query runs through tracedQuery under a
// "pass" root span, and after the pass ends each query's
// Session.ReportKey is timed under a "report-key" root span of its own.
func (p *pipe) pass(ctx context.Context, i int, traced bool, coreOpts core.Options,
	pre func(ctx context.Context) ([]pipeQuery, error)) error {
	var tr *Tracer
	if traced {
		tr = p.r.tr
	}
	t0, u0 := time.Now(), readUsage()
	pctx, endPass := tr.Start(ctx, "pass", fmt.Sprintf("pass%d", i))
	qs, err := pre(pctx)
	if err != nil {
		endPass()
		return err
	}
	done := 0
	for j, q := range qs {
		q0 := time.Now()
		var out queryOut
		var err error
		if traced {
			qctx, endQ := tr.Start(pctx, "query", fmt.Sprintf("pass%d/q%d", i, j))
			out, err = tracedQuery(qctx, tr, q.sess, coreOpts, q.sql, p.ls)
			endQ()
		} else {
			out, err = runQuery(ctx, q.sess, q.sql)
		}
		p.r.op(err == nil)
		if err != nil {
			p.r.wrong("%s: %v", q.key, err)
			continue
		}
		done++
		if !traced {
			p.byKey[q.key] = append(p.byKey[q.key], ms(time.Since(q0)))
		}
		if prev, ok := p.want[q.key]; !ok {
			p.want[q.key] = out
			p.quality[q.key] = q.gt.Quality(out.Names)
		} else if !prev.equal(out) {
			p.r.wrong("%s: pass %d (traced=%v) explained differently:\n%s\nvs\n%s", q.key, i, traced, out.Summary, prev.Summary)
		}
	}
	endPass()
	wall := time.Since(t0)
	if traced {
		p.traced++
		p.passWall[1] = append(p.passWall[1], ms(wall))
		for _, q := range qs {
			_, end := tr.Start(ctx, "report-key", q.key)
			_, err := q.sess.ReportKey(q.sql, subgroupK, 0)
			end()
			if err != nil {
				return fmt.Errorf("%s: report key: %w", q.key, err)
			}
			p.reportKeys++
		}
		return nil
	}
	u := readUsage().sub(u0)
	p.passWall[0] = append(p.passWall[0], ms(wall))
	p.queries += done
	p.wall += wall
	p.cost.cpu += u.cpu
	p.cost.alloc += u.alloc
	return nil
}

// finish reports the pipeline metrics of the mode the run is in.
func (p *pipe) finish() {
	r := p.r
	// A query's latency is its median over the run's untraced passes, which
	// keeps one disturbed pass from moving the figure. query_gmean_ms is the
	// geometric mean of those over the query set: every query counts, so
	// the noise of a single one averages out, where the median is the
	// latency of whichever query sits in the middle.
	var perQuery []float64
	for key, xs := range p.byKey {
		v, n := percentile(xs, 50)
		r.set("query_ms "+key, v, n)
		perQuery = append(perQuery, v)
	}
	v, _ := percentile(perQuery, 50)
	r.set("query_p50_ms", v, p.queries)
	r.set("query_gmean_ms", gmean(perQuery), p.queries)
	if !r.trace {
		r.set("queries_per_s", float64(p.queries)/p.wall.Seconds(), p.queries)
		r.setCost(p.cost, p.queries)
		return
	}
	q := 0.0
	for _, v := range p.quality {
		q += v
	}
	if len(p.quality) > 0 {
		r.set("gt_quality", q/float64(len(p.quality)), len(p.quality))
	}
	per := float64(max(p.traced, 1))
	spans := r.tr.Spans()
	passLayers := layerTimes(spans, "pass")
	for name, v := range passLayers {
		if name != "pass" && name != "query" {
			r.set(layerMetricName(name), v/per, p.traced)
		}
	}
	r.set("report-key.ms", layerTimes(spans, "report-key")["report-key"]/float64(max(p.reportKeys, 1)), p.reportKeys)
	r.set("trace.unspanned_ms", (passLayers["pass"]+passLayers["query"])/per, p.traced)
	r.set("trace.overhead_ms", median(p.passWall[1])-median(p.passWall[0]), len(p.passWall[1]))

	ls := p.ls
	c := ls.counters
	r.set("execute-query.view_rows", float64(ls.viewRows)/per, 0)
	r.set("input-candidates.count", float64(ls.inputs)/per, 0)
	r.set("kg-extract.attrs", float64(ls.kgAttrs)/per, 0)
	r.set("ned.linked_ratio", ratio(ls.linked, ls.linkable), 0)
	r.set("ipw.biased_attrs", float64(c[obs.BiasedAttrs])/per, 0)
	r.set("offline-prune.kept_ratio", ratio(ls.offKept, ls.offIn), 0)
	r.set("online-prune.kept_ratio", ratio(ls.onKept, ls.onIn), 0)
	r.set("ci_tests", float64(c[obs.CITests])/per, 0)
	r.set("candidates_scored", float64(c[obs.CandidatesScored])/per, 0)
	r.set("mcimr.speculative_win_ratio", ratio(int(c[obs.SpeculativeWins]), int(c[obs.SpeculativeEvals])), 0)
	r.set("counting.dense_passes", float64(ls.kernel.DensePasses)/per, 0)
	r.set("counting.sparse_passes", float64(ls.kernel.SparsePasses)/per, 0)
	r.set("counting.id_joins", float64(ls.kernel.IDJoins)/per, 0)
	r.set("subgroup-search.groups_scored", float64(c[obs.GroupsScored])/per, 0)
	r.set("subgroup-search.explored_ratio", ratio(int(c[obs.SubgroupNodesExplored]), int(c[obs.GroupsScored])), 0)
	r.set("rowset_cache_hits", float64(c[obs.RowsetCacheHits])/per, 0)
}

// layerMetricName maps a span name to its per-layer metric: "<span>.ms",
// or "<span>_ms" for the colstore steps, whose span names already carry
// the module.
func layerMetricName(span string) string {
	if strings.HasPrefix(span, "colstore.") {
		return span + "_ms"
	}
	return span + ".ms"
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func newSession(src kg.Source, coreOpts core.Options, ds *workload.Dataset) *nexus.Session {
	sess := nexus.NewSessionFromSource(src, &nexus.Options{Core: coreOpts})
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	return sess
}

// analyst runs the 14 user-study queries over the four datasets at test
// scale, one client in a closed loop, with fresh sessions every pass so
// KG extraction is cold as it is for a CLI user.
func analyst(ctx context.Context, r *run) error {
	type inputs struct {
		w  *kg.World
		ds map[string]*workload.Dataset
	}
	sc := harness.TestScale()
	in, err := setupTimes(r, func() (inputs, error) {
		w := newWorld()
		return inputs{w, map[string]*workload.Dataset{
			"SO":       workload.StackOverflow(w, workload.Config{Rows: sc.SORows, Seed: dataSeed + 1}),
			"Covid-19": workload.Covid(w, workload.Config{Rows: sc.CovidRows, Seed: dataSeed + 2}),
			"Flights":  workload.Flights(w, workload.Config{Rows: sc.FlightsRows, Seed: dataSeed + 3}),
			"Forbes":   workload.Forbes(w, workload.Config{Rows: sc.ForbesRows, Seed: dataSeed + 4}),
		}}, nil
	}, func(inputs) {})
	if err != nil {
		return err
	}
	p := newPipe(r)
	coreOpts := core.DefaultOptions()
	err = r.passes(func(i int, traced bool) error {
		return p.pass(ctx, i, traced, coreOpts, func(context.Context) ([]pipeQuery, error) {
			sessions := map[string]*nexus.Session{}
			var qs []pipeQuery
			for _, spec := range harness.Queries() {
				ds := in.ds[spec.Dataset]
				if sessions[spec.Dataset] == nil {
					sessions[spec.Dataset] = newSession(in.w.Graph, coreOpts, ds)
				}
				qs = append(qs, pipeQuery{key: spec.Key(), sql: spec.SQL, gt: spec.GT, sess: sessions[spec.Dataset]})
			}
			return qs, nil
		})
	})
	if err != nil {
		return err
	}
	p.finish()
	return nil
}

// ingestRows is the size of the ingest workload's Flights CSV.
const ingestRows = 500_000

// ingestSQL are the two selective Flights queries (user-study Q3 style)
// explained after every load.
var ingestSQL = []string{
	"SELECT Origin_city, avg(Departure_delay) FROM Flights WHERE Origin_state = 'CA' GROUP BY Origin_city",
	"SELECT Origin_city, avg(Departure_delay) FROM Flights WHERE Origin_state = 'TX' GROUP BY Origin_city",
}

// ingest streams a seeded Flights CSV through colstore.FromCSV, Drain and
// RegisterTable every pass, then explains two selective queries.
func ingest(ctx context.Context, r *run) error {
	type inputs struct {
		w   *kg.World
		csv []byte
	}
	in, err := setupTimes(r, func() (inputs, error) {
		w := newWorld()
		var buf bytes.Buffer
		err := workload.FlightsCSV(w, workload.Config{Rows: ingestRows, Seed: dataSeed + 3}, &buf)
		return inputs{w, buf.Bytes()}, err
	}, func(inputs) {})
	if err != nil {
		return err
	}
	wantRows, wantDict, err := csvShape(in.csv)
	if err != nil {
		return err
	}
	var gt userstudy.GroundTruth
	for _, spec := range harness.Queries() {
		if spec.Key() == "Flights Q3" {
			gt = spec.GT
		}
	}
	p := newPipe(r)
	coreOpts := core.DefaultOptions()
	var loadWall []float64
	var chunks, dictEntries, resident int64
	err = r.passes(func(i int, traced bool) error {
		return p.pass(ctx, i, traced, coreOpts, func(pctx context.Context) ([]pipeQuery, error) {
			var tr *Tracer
			if traced {
				tr = r.tr
			}
			t0 := time.Now()
			_, end := tr.Start(pctx, "colstore.ingest", "")
			ct, err := colstore.FromCSV(bytes.NewReader(in.csv), colstore.Options{})
			end()
			if err != nil {
				return nil, fmt.Errorf("ingest: %w", err)
			}
			if int(ct.NumRows()) != wantRows {
				r.wrong("ingest: %d rows ingested, the generator wrote %d", ct.NumRows(), wantRows)
			}
			for col, n := range wantDict {
				if c := ct.Column(col); c == nil || len(c.Dict()) != n {
					r.wrong("ingest: column %s dictionary does not have the %d values the generator wrote", col, n)
				}
			}
			st := ct.Stats()
			chunks, dictEntries, resident = st.Chunks, st.DictEntries, colstore.ResidentBytes()
			_, end = tr.Start(pctx, "colstore.drain", "")
			t, err := ct.Drain()
			end()
			if err != nil {
				return nil, fmt.Errorf("drain: %w", err)
			}
			if t.NumRows() != wantRows {
				r.wrong("drain: %d rows, want %d", t.NumRows(), wantRows)
			}
			ds := &workload.Dataset{Name: "Flights", Table: t, LinkColumns: workload.FlightsLinkColumns, ExcludeCandidates: workload.FlightsExcludeCandidates}
			_, end = tr.Start(pctx, "register", "")
			sess := newSession(in.w.Graph, coreOpts, ds)
			end()
			loadWall = append(loadWall, time.Since(t0).Seconds())
			var qs []pipeQuery
			for j, sql := range ingestSQL {
				qs = append(qs, pipeQuery{key: fmt.Sprintf("ingest Q%d", j+1), sql: sql, gt: gt, sess: sess})
			}
			return qs, nil
		})
	})
	if err != nil {
		return err
	}
	p.finish()
	if r.trace {
		r.set("colstore.chunks", float64(chunks), 0)
		r.set("colstore.dict_entries", float64(dictEntries), 0)
		r.set("resident_chunk_mb", float64(resident)/1e6, 0)
		r.set("ingest_rows_per_s", float64(wantRows)/median(loadWall), len(loadWall))
	}
	return nil
}

// csvShape counts the data rows of a CSV and the distinct values of each
// column that holds text, independently of colstore.
func csvShape(data []byte) (int, map[string]int, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, nil, err
	}
	header = append([]string(nil), header...)
	seen := make([]map[string]bool, len(header))
	numeric := make([]bool, len(header))
	for i := range seen {
		seen[i] = map[string]bool{}
		numeric[i] = true
	}
	rows := 0
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, nil, err
		}
		rows++
		for i, v := range rec {
			if !seen[i][v] {
				seen[i][v] = true
				if numeric[i] && !isNumber(v) {
					numeric[i] = false
				}
			}
		}
	}
	out := map[string]int{}
	for i, name := range header {
		if !numeric[i] {
			out[name] = len(seen[i])
		}
	}
	return rows, out, nil
}

func isNumber(s string) bool {
	if s == "" {
		return true
	}
	var f float64
	_, err := fmt.Sscan(s, &f)
	return err == nil
}

// remoteSQL are the Flights user-study queries the remote workload runs.
var remoteSQL = []string{"Flights Q1", "Flights Q2", "Flights Q5"}

// remoteRows is the Flights size of the remote workload.
const remoteRows = 20000

// fleet is the remote workload's in-process servers: one kgserve and two
// distworkers, each on its own loopback listener.
type fleet struct {
	kgURL   string
	workers []string
	servers []*http.Server
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &http.Server{Handler: h}
	f.servers = append(f.servers, s)
	go s.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// remote runs Flights Q1, Q2 and Q5 with the KG behind kgremote → kgserve
// and scoring on distremote → two distworkers, fresh clients every pass.
// Outputs must equal the in-process run of the same queries.
func remote(ctx context.Context, r *run) error {
	type inputs struct {
		w  *kg.World
		ds *workload.Dataset
		f  *fleet
	}
	in, err := setupTimes(r, func() (inputs, error) {
		w := newWorld()
		ds := workload.Flights(w, workload.Config{Rows: remoteRows, Seed: dataSeed + 3})
		f := &fleet{}
		u, err := f.serve(kgserve.New(kgserve.Config{Source: w.Graph}).Handler())
		if err != nil {
			return inputs{}, err
		}
		f.kgURL = u
		for k := 0; k < 2; k++ {
			u, err := f.serve(distworker.New(distworker.Config{}).Handler())
			if err != nil {
				f.close()
				return inputs{}, err
			}
			f.workers = append(f.workers, u)
		}
		return inputs{w, ds, f}, nil
	}, func(in inputs) { in.f.close() })
	if err != nil {
		return err
	}
	defer in.f.close()
	specs := map[string]harness.QuerySpec{}
	for _, s := range harness.Queries() {
		specs[s.Key()] = s
	}
	p := newPipe(r)
	var kgMeters, distMeters []*rpcMeter
	ctrs := obs.NewCounters() // traced passes
	var fallbacks int64
	err = r.passes(func(i int, traced bool) error {
		var tr *Tracer
		if traced {
			tr = r.tr
		}
		c := obs.NewCounters()
		defer func() {
			fallbacks += c.Get(obs.DistFallbacks)
			if traced {
				for k, v := range c.Snapshot() {
					ctrs.Add(k, v)
				}
			}
		}()
		kgM, distM := newRPCMeter("kg-rpc", tr), newRPCMeter("dist-rpc", tr)
		defer kgM.close()
		defer distM.close()
		if traced {
			kgMeters, distMeters = append(kgMeters, kgM), append(distMeters, distM)
		}
		client := kgremote.New(in.f.kgURL, kgremote.Options{HTTPClient: kgM.client(), Counters: c, Seed: r.seed + 1})
		coreOpts := core.DefaultOptions()
		coreOpts.Scorer = distremote.New(in.f.workers, distremote.Options{HTTPClient: distM.client(), Counters: c, Seed: r.seed + 1})
		return p.pass(ctx, i, traced, coreOpts, func(context.Context) ([]pipeQuery, error) {
			sess := newSession(client, coreOpts, in.ds)
			var qs []pipeQuery
			for _, key := range remoteSQL {
				qs = append(qs, pipeQuery{key: key, sql: specs[key].SQL, gt: specs[key].GT, sess: sess})
			}
			return qs, nil
		})
	})
	if err != nil {
		return err
	}
	// The reference: the same queries in process, untimed.
	local := newSession(in.w.Graph, core.DefaultOptions(), in.ds)
	for _, key := range remoteSQL {
		want, err := runQuery(ctx, local, specs[key].SQL)
		if err != nil {
			return fmt.Errorf("in-process reference %s: %w", key, err)
		}
		if got := p.want[key]; !got.equal(want) {
			r.wrong("%s: remote output differs from in-process:\n%s\n%s\nvs\n%s\n%s", key,
				got.Summary, strings.Join(got.Groups, "\n"), want.Summary, strings.Join(want.Groups, "\n"))
		}
	}
	if fallbacks != 0 {
		r.wrong("remote: %d dist units fell back to local scoring", fallbacks)
	}
	c := ctrs.Snapshot()
	p.finish()
	if r.trace {
		per := float64(max(p.traced, 1))
		sum := func(ms []*rpcMeter, f func(*rpcMeter) int64) float64 {
			t := int64(0)
			for _, m := range ms {
				t += f(m)
			}
			return float64(t) / per
		}
		reqs := func(m *rpcMeter) int64 { return m.requests.Load() }
		r.set("kg-rpc.requests", sum(kgMeters, reqs), 0)
		r.set("kg-rpc.bytes", sum(kgMeters, func(m *rpcMeter) int64 { return m.sent.Load() + m.recv.Load() }), 0)
		r.set("kg.cache_hit_ratio", ratio(int(c[obs.KGCacheHits]), int(c[obs.KGCacheHits]+c[obs.KGCacheMisses])), 0)
		r.set("dist-rpc.requests", sum(distMeters, reqs), 0)
		r.set("dist-rpc.bytes_sent", sum(distMeters, func(m *rpcMeter) int64 { return m.sent.Load() }), 0)
		r.set("dist-rpc.bytes_recv", sum(distMeters, func(m *rpcMeter) int64 { return m.recv.Load() }), 0)
		r.set("dist.units", float64(c[obs.DistUnits])/per, 0)
		r.set("dist.requests_per_unit", ratio(int(sum(distMeters, reqs)*per), int(c[obs.DistUnits])), 0)
		r.set("dist.retries", float64(c[obs.DistRetries])/per, 0)
		r.set("dist.fallbacks", float64(c[obs.DistFallbacks])/per, 0)
	}
	return nil
}
