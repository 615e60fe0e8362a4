package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/obs"
	"nexus/internal/sqlx"
	"nexus/internal/subgroups"
)

// subgroupK is how many unexplained subgroups every pipeline query asks for.
const subgroupK = 5

// queryOut is what a pipeline query produced, in a form that can be
// compared across passes, tracing modes and backends.
type queryOut struct {
	Summary string   // Report.Summary without the elapsed line
	Groups  []string // subgroup conditions, sizes and scores
	Names   []string // explanation attribute names
}

func (q queryOut) equal(o queryOut) bool {
	return q.Summary == o.Summary && strings.Join(q.Groups, "\n") == strings.Join(o.Groups, "\n")
}

// withoutLine drops the summary lines that start with prefix.
func withoutLine(summary, prefix string) string {
	lines := strings.Split(summary, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

func output(rep *nexus.Report, groups []subgroups.Group) queryOut {
	out := queryOut{Summary: withoutLine(rep.Summary(), "elapsed:"), Names: rep.Explanation.Names()}
	for _, g := range groups {
		out.Groups = append(out.Groups, fmt.Sprintf("%s size=%d score=%.6f", g.String(), g.Size, g.Score))
	}
	return out
}

// runQuery is one untraced pipeline query exactly as a caller of the
// library runs it: PrepareCtx, ExplainCtx, SubgroupsCtx.
func runQuery(ctx context.Context, sess *nexus.Session, sql string) (queryOut, error) {
	a, err := sess.PrepareCtx(ctx, sql)
	if err != nil {
		return queryOut{}, err
	}
	rep, err := a.ExplainCtx(ctx)
	if err != nil {
		return queryOut{}, err
	}
	groups, _, err := rep.SubgroupsCtx(ctx, subgroupK, 0)
	if err != nil {
		return queryOut{}, err
	}
	return output(rep, groups), nil
}

// layerStats accumulates the counters of traced queries, which run one at
// a time.
type layerStats struct {
	counters map[string]int64
	kernel   counting.Counters
	offIn    int
	offKept  int
	onIn     int
	onKept   int
	viewRows int
	inputs   int
	kgAttrs  int
	linked   int
	linkable int
}

func newLayerStats() *layerStats { return &layerStats{counters: map[string]int64{}} }

func (l *layerStats) addCounters(c *obs.Counters) {
	for k, v := range c.Snapshot() {
		l.counters[k] += v
	}
}

// prepareStages are the obs.PipelineStages inside Session.PrepareQueryCtx
// that the traced run reports as layers of their own.
var prepareStages = map[string]bool{"execute-query": true, "input-candidates": true, "ned": true, "kg-extract": true}

// tracedQuery runs the same work as runQuery, split at the public seams of
// each layer so the benchmark's own spans can time them: the core phases
// that ExplainCtx chains internally are called one by one, and the lazy
// per-candidate encoding and IPW weights are forced in spans of their own
// at the point where offline and online pruning would first request them.
// The result must equal runQuery's, which every traced pass checks.
func tracedQuery(ctx context.Context, tr *Tracer, sess *nexus.Session, coreOpts core.Options, sql string, ls *layerStats) (queryOut, error) {
	ctrs := obs.NewCounters()
	origin := time.Now()
	ptr := obs.NewWithCounters("perfbench", ctrs)
	ctx = obs.WithTrace(ctx, ptr)
	defer ls.addCounters(ctrs)
	kernelBase := counting.Stats()
	defer func() {
		d := counting.Stats().Delta(kernelBase)
		ls.kernel.DensePasses += d.DensePasses
		ls.kernel.SparsePasses += d.SparsePasses
		ls.kernel.IDJoins += d.IDJoins
	}()

	var q *sqlx.Query
	if err := tr.Do(ctx, "parse", func(context.Context) (err error) { q, err = sqlx.Parse(sql); return }); err != nil {
		return queryOut{}, err
	}
	pctx, endPrep := tr.Start(ctx, "prepare", "")
	a, err := sess.PrepareQueryCtx(pctx, q)
	endPrep()
	if err != nil {
		return queryOut{}, err
	}
	// PrepareQueryCtx chains query execution, input-candidate encoding,
	// entity linking and KG extraction with no public seam between them;
	// the program's own obs spans for those stages time them.
	tr.graft(pctx, origin, ptr.Snapshot().Root, prepareStages)
	ls.viewRows += a.View.NumRows()
	if a.Extraction != nil {
		ls.kgAttrs += len(a.Extraction.Attrs)
	}
	for _, c := range a.Candidates {
		if c.Origin == core.OriginInput {
			ls.inputs++
		}
	}
	if err := tr.Do(ctx, "encode", func(context.Context) error {
		for _, c := range a.Candidates {
			if _, err := c.Enc(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return queryOut{}, err
	}
	opts := coreOpts
	opts.Trace = ptr
	if opts.Scorer != nil && opts.ScoreTag == "" {
		_, end := tr.Start(ctx, "score-tag", "")
		opts.ScoreTag = sess.DatasetFingerprint() + "|" + sess.KGVersion()
		end()
	}
	base := infotheory.MutualInfo(a.O, a.T, nil)
	var kept []*core.Candidate
	var offSt, onSt core.PruneStats
	if err := tr.Do(ctx, "offline-prune", func(c context.Context) (err error) {
		kept, offSt, err = core.OfflinePruneCtx(c, ptr, a.Candidates, opts.Prune)
		return
	}); err != nil {
		return queryOut{}, err
	}
	if err := tr.Do(ctx, "ipw", func(context.Context) error {
		for _, c := range kept {
			if c.Weights == nil {
				continue
			}
			enc, err := c.Enc()
			if err != nil {
				return err
			}
			c.Weights(enc)
		}
		return nil
	}); err != nil {
		return queryOut{}, err
	}
	if err := tr.Do(ctx, "online-prune", func(c context.Context) (err error) {
		kept, onSt, err = core.OnlinePruneCtx(c, ptr, a.T, a.O, kept, opts.Prune)
		return
	}); err != nil {
		return queryOut{}, err
	}
	var sel *core.Selection
	if err := tr.Do(ctx, "mcimr", func(c context.Context) (err error) {
		sel, err = core.MCIMRCtx(c, a.T, a.O, kept, opts)
		return
	}); err != nil {
		return queryOut{}, err
	}
	ex := &core.Explanation{Attrs: sel.Attrs, BaseScore: base, OfflineStats: offSt, OnlineStats: onSt}
	_, end := tr.Start(ctx, "responsibility", "")
	ex.Score = responsibilities(a.T, a.O, ex, sel.Encs, sel.Weights)
	end()
	rep := &nexus.Report{Analysis: a, Explanation: ex}
	var groups []subgroups.Group
	if err := tr.Do(ctx, "subgroup-search", func(c context.Context) (err error) {
		groups, _, err = rep.SubgroupsCtx(c, subgroupK, 0)
		return
	}); err != nil {
		return queryOut{}, err
	}

	ls.offIn += offSt.Input
	ls.offKept += offSt.Kept
	ls.onIn += onSt.Input
	ls.onKept += onSt.Kept
	for _, st := range a.LinkStats {
		ls.linked += st.Linked
		ls.linkable += st.Total()
	}
	return output(rep, groups), nil
}

// responsibilities scores the selected set and ranks its members by
// Def. 2.5 through the public core.EvaluateSet, as core.ExplainCtx does
// after MCIMR; it returns the joint score.
func responsibilities(t, o *bins.Encoded, ex *core.Explanation, encs []*bins.Encoded, ws [][]float64) float64 {
	var w []float64
	for _, wi := range ws {
		if wi == nil {
			continue
		}
		if w == nil {
			w = append([]float64(nil), wi...)
			continue
		}
		for i := range w {
			w[i] *= wi[i]
		}
	}
	full := core.EvaluateSet(t, o, encs, w)
	k := len(encs)
	switch k {
	case 0:
		return full
	case 1:
		ex.Attrs[0].Responsibility = 1
		return full
	}
	drops := make([]float64, k)
	var denom float64
	for i := range encs {
		without := make([]*bins.Encoded, 0, k-1)
		for j, e := range encs {
			if j != i {
				without = append(without, e)
			}
		}
		drops[i] = core.EvaluateSet(t, o, without, w) - full
		denom += drops[i]
	}
	for i := range drops {
		if denom != 0 {
			ex.Attrs[i].Responsibility = drops[i] / denom
		}
	}
	return full
}

// rpcMeter is an http.RoundTripper that counts the requests and bytes of
// one RPC stack and, in traced runs, records a span per request under the
// layer span the request's context carries. The span ends when the
// response body has been read and closed.
type rpcMeter struct {
	name     string
	base     http.RoundTripper
	tr       *Tracer
	requests atomic.Int64
	sent     atomic.Int64
	recv     atomic.Int64
}

func newRPCMeter(name string, tr *Tracer) *rpcMeter {
	return &rpcMeter{name: name, base: &http.Transport{MaxIdleConnsPerHost: 16}, tr: tr}
}

func (m *rpcMeter) client() *http.Client { return &http.Client{Transport: m} }

func (m *rpcMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	m.requests.Add(1)
	if req.ContentLength > 0 {
		m.sent.Add(req.ContentLength)
	}
	_, end := m.tr.Start(req.Context(), m.name, "")
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m, end: end}
	return resp, nil
}

func (m *rpcMeter) close() {
	if t, ok := m.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

type meteredBody struct {
	io.ReadCloser
	m    *rpcMeter
	end  func()
	once sync.Once
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.recv.Add(int64(n))
	return n, err
}

func (b *meteredBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
