// Command perfbench is the repository benchmark: one seeded, noise-aware
// run of one workload over the whole explanation pipeline, timed from
// outside the program through its public packages.
//
//	perfbench --workload analyst|ingest|serve|remote --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// untraced and traced passes side by side and prints the per-layer metrics
// derived from the benchmark's own spans and the program's counters. Every
// run checks the program's outputs; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_gmean_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"alloc_mb_per_query", "MB"},
	{"peak_heap_mb", "MB"},
	{"success_frac", "ratio"},
}

// perLayer are the traced run's metrics of every workload. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"colstore.ingest_ms", "ms"},
	{"colstore.drain_ms", "ms"},
	{"colstore.chunks", "count"},
	{"colstore.dict_entries", "count"},
	{"ingest_rows_per_s", "1/s"},
	{"resident_chunk_mb", "MB"},
	{"parse.ms", "ms"},
	{"prepare.ms", "ms"},
	{"execute-query.ms", "ms"},
	{"execute-query.view_rows", "count"},
	{"input-candidates.ms", "ms"},
	{"input-candidates.count", "count"},
	{"encode.ms", "ms"},
	{"ipw.ms", "ms"},
	{"ipw.biased_attrs", "count"},
	{"ned.ms", "ms"},
	{"ned.linked_ratio", "ratio"},
	{"kg-extract.ms", "ms"},
	{"kg-extract.attrs", "count"},
	{"offline-prune.ms", "ms"},
	{"offline-prune.kept_ratio", "ratio"},
	{"online-prune.ms", "ms"},
	{"online-prune.kept_ratio", "ratio"},
	{"ci_tests", "count"},
	{"mcimr.ms", "ms"},
	{"candidates_scored", "count"},
	{"mcimr.speculative_win_ratio", "ratio"},
	{"responsibility.ms", "ms"},
	{"counting.dense_passes", "count"},
	{"counting.sparse_passes", "count"},
	{"counting.id_joins", "count"},
	{"subgroup-search.ms", "ms"},
	{"subgroup-search.groups_scored", "count"},
	{"subgroup-search.explored_ratio", "ratio"},
	{"rowset_cache_hits", "count"},
	{"query_p50_ms", "ms"},
	{"gt_quality", "ratio"},
	{"report-key.ms", "ms"},
	{"kg-rpc.requests", "count"},
	{"kg-rpc.bytes", "bytes"},
	{"kg-rpc.ms", "ms"},
	{"kg.cache_hit_ratio", "ratio"},
	{"dist-rpc.requests", "count"},
	{"dist-rpc.bytes_sent", "bytes"},
	{"dist-rpc.bytes_recv", "bytes"},
	{"dist-rpc.ms", "ms"},
	{"dist.units", "count"},
	{"dist.requests_per_unit", "ratio"},
	{"dist.retries", "count"},
	{"dist.fallbacks", "count"},
	{"error_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.unspanned_ms", "ms"},
	{"trace.spans", "count"},
}

// serveLayer are the per-layer metrics only the serve workload measures.
// serve is not in BENCHMARK.json (README.md says why), so they are printed
// for it alone.
var serveLayer = []metricDef{
	{"report-cache.hit_ratio", "ratio"},
	{"report-cache.misses", "count"},
	{"report-cache.shared", "count"},
	{"serve_p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.shed", "count"},
	{"server.rejected", "count"},
	{"http.overhead_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
}

// metric is one measured value; n is the number of samples behind it (0
// for counts and ratios read once).
type metric struct {
	value float64
	n     int
}

// run is the state of one benchmark invocation.
type run struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	tr        *Tracer // nil unless trace
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func (r *run) set(name string, v float64, n int) { r.metrics[name] = metric{v, n} }

// wrong records an output check that failed; the run then reports
// correct=false.
func (r *run) wrong(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it succeeded.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(context.Context, *run) error{
	"analyst": analyst,
	"ingest":  ingest,
	"serve":   serve,
	"remote":  remote,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "analyst, ingest, serve or remote")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer breakdown")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]metric{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	r.set("host_calibration_ms", hostCalibration(), 3)
	heap := sampleLiveHeap()
	if err := fn(context.Background(), r); err != nil {
		return err
	}
	peakLive := heap()
	if r.attempted == 0 {
		return fmt.Errorf("workload %s attempted nothing in %v", r.workload, r.seconds)
	}
	if r.trace {
		spans := r.tr.Spans()
		if err := checkAccounting(spans); err != nil {
			r.wrong("%v", err)
		}
		r.set("trace.spans", float64(len(spans)), 0)
		dir := filepath.Join(".bench_build", "perfbench")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.tr.Flush(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Println("spans written to", path)
	} else {
		r.set("peak_heap_mb", peakLive/1e6, 0)
		r.set("peak_rss_mb", peakRSSMB(), 0)
		r.set("success_frac", float64(r.attempted-r.failed)/float64(r.attempted), r.attempted)
	}
	r.set("error_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	return report(r)
}

// report prints a readable table and then the one-line JSON result.
func report(r *run) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
		if r.workload == "serve" {
			defs = append(append([]metricDef(nil), perLayer...), serveLayer...)
		}
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := map[string]out{}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%v trace=%v\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok && !r.trace {
			return fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", d.name)
		}
		res[d.name] = out{m.value, d.unit}
		samples := ""
		if m.n > 0 {
			samples = " n=" + strconv.Itoa(m.n)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s%s\n", d.name, m.value, d.unit, samples)
	}
	extra := make([]string, 0)
	for name := range r.metrics {
		if _, ok := res[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  (info) %-25s %14.4f\n", name, r.metrics[name].value)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, res})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return w.Flush()
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB. Where
// /proc is unavailable it falls back to the Go runtime's total mapped
// memory.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostCalibration times a fixed single-threaded job — sorting the same
// pseudo-random million integers — three times and returns the median in
// ms. It runs no program code, so when it moves between two sets of runs
// the machine moved, not the code.
func hostCalibration() float64 {
	var times []float64
	for i := 0; i < 3; i++ {
		xs := make([]uint64, 1<<20)
		x := uint64(88172645463325252)
		for j := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[j] = x
		}
		t0 := time.Now()
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// sampleLiveHeap polls the heap the last garbage collection found live
// (runtime/metrics /gc/heap/live:bytes) every 5ms until the returned
// function is called, which stops the poller and returns the peak in bytes.
// Unlike the resident set it does not count garbage awaiting collection, so
// it does not move with the collector's timing.
func sampleLiveHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := 0.0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// usage is the process's CPU time and heap allocation so far.
type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // bytes allocated on the heap
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = s[0].Value.Uint64()
	}
	return u
}

func (u usage) sub(v usage) usage { return usage{u.cpu - v.cpu, u.alloc - v.alloc} }

// setCost reports the CPU time and heap allocation per completed operation.
func (r *run) setCost(u usage, ops int) {
	if ops == 0 {
		return
	}
	r.set("cpu_ms_per_query", ms(u.cpu)/float64(ops), ops)
	r.set("alloc_mb_per_query", float64(u.alloc)/1e6/float64(ops), ops)
}

// setupRuns is how many times a run builds its inputs for setup_s.
const setupRuns = 5

// setupTimes runs build setupRuns times and reports the median as setup_s.
// Every result but the last is torn down; the last one is kept.
func setupTimes[T any](r *run, build func() (T, error), teardown func(T)) (T, error) {
	var times []float64
	var keep T
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return keep, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			teardown(v)
		} else {
			keep = v
		}
		// Collect between repetitions so earlier copies of the inputs do
		// not raise the peak resident set.
		runtime.GC()
		debug.FreeOSMemory()
	}
	r.set("setup_s", median(times), len(times))
	return keep, nil
}

// passes drives a closed loop of passes until the budget is spent: a new
// pass starts only if one more pass of the last pass's length would still
// fit. Untraced runs make at least one pass; traced runs alternate
// untraced and traced passes and make at least one of each.
func (r *run) passes(pass func(i int, traced bool) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		traced := r.trace && i%2 == 1
		if i > 0 && time.Since(start)+last > r.seconds && (!r.trace || i >= 2) {
			return nil
		}
		t0 := time.Now()
		if err := pass(i, traced); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}
