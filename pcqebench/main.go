// Command pcqebench is the pcqe benchmark. It generates one workload's
// inputs from a seed, drives the system through its public entry points
// (core.Engine in process, the internal/server HTTP handler over
// loopback TCP), checks every answer, and prints each metric by name
// with its unit. The last line of standard output is a JSON object with
// the end-to-end metrics, or with the per-layer metrics of a traced run
// when --trace 1 is given.
//
//	pcqebench --workload report|improve|serve --seed N --seconds S --trace 0|1
//
// See NOTES.md for the workloads, metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
)

// spec describes one reported metric.
type spec struct{ name, unit, better string }

// endToEnd are the metrics every workload reports with --trace 0; the
// JSON result carries exactly these.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"heap_mb", "MiB", "lower"},
}

// someWorkloads are end-to-end metrics that apply to some workloads
// only (no proposals in report, no applies in serve, no failures
// outside serve); they are printed but not part of the JSON result.
var someWorkloads = []spec{
	{"propose_p50_ms", "ms", "lower"},
	{"propose_p90_ms", "ms", "lower"},
	{"apply_p50_ms", "ms", "lower"},
	{"apply_p90_ms", "ms", "lower"},
	{"explain_p50_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
	{"proposal_cost", "cost", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1); the JSON result
// carries exactly these, 0 where a layer is not exercised.
var perLayer = []spec{
	{"sql.parse_us", "us", "lower"},
	{"sql.plan_us", "us", "lower"},
	{"sql.plancache_hit_ratio", "ratio", "higher"},
	{"relation.exec_ms", "ms", "lower"},
	{"relation.rows_out", "rows", "lower"},
	{"relation.exec_alloc_kb", "KiB", "lower"},
	{"relation.open_snapshots", "count", "lower"},
	{"lineage.conf_ms", "ms", "lower"},
	{"lineage.pivots", "count", "lower"},
	{"lineage.readonce_rows", "rows", "higher"},
	{"lineage.bounded_rows", "rows", "lower"},
	{"lineage.hard_rows", "rows", "lower"},
	{"lineage.confcache_hit_ratio", "ratio", "higher"},
	{"lineage.confcache_entries", "count", "lower"},
	{"policy.threshold_us", "us", "lower"},
	{"policy.filter_ms", "ms", "lower"},
	{"strategy.solve_ms", "ms", "lower"},
	{"strategy.nodes", "count", "lower"},
	{"strategy.steps", "count", "lower"},
	{"strategy.pivots", "count", "lower"},
	{"strategy.groups", "count", "lower"},
	{"strategy.increments", "count", "lower"},
	{"core.evaluate_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"core.apply_ms", "ms", "lower"},
	{"core.audit_events", "count", "lower"},
	{"server.roundtrip_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.wire_ms", "ms", "lower"},
	{"server.response_kb", "KiB", "lower"},
	{"server.handler_panics", "count", "lower"},
	{"server.reconnects", "count", "lower"},
	{"server.rejected_429", "count", "lower"},
	{"server.rejected_503", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MiB", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, list := range [][]spec{endToEnd, someWorkloads, perLayer} {
		for _, s := range list {
			u[s.name] = s.unit
		}
	}
	return u
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("unknown metric " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	traceDir string
	repo     string
}

// outcomes is what a workload run reports.
type outcomes struct {
	attempted, failed, wrong int
	metrics                  metricSet
	notes                    []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcqebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: report, improve or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for span files")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root (for testdata)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "pcqebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.run, cfg.trace = time.Duration(seconds)*time.Second, trace == 1

	var out *outcomes
	var err error
	switch cfg.workload {
	case "report", "improve":
		out, err = runInproc(cfg)
	case "serve":
		out, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (report, improve, serve)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pcqebench:", err)
		return 1
	}
	return printOutcomes(stdout, cfg, out)
}

// printOutcomes prints every metric as a line, the notes, and the JSON
// result; a wrong answer makes the exit code 1.
func printOutcomes(w io.Writer, cfg config, out *outcomes) int {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f trace %t\n", cfg.workload, cfg.seed, cfg.run.Seconds(), cfg.trace)
	for _, l := range [][]spec{list, someWorkloads} {
		for _, s := range l {
			if m, ok := out.metrics[s.name]; ok {
				fmt.Fprintf(w, "%-30s %16.6f %s\n", s.name, m.Value, m.Unit)
			}
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed + out.wrong, map[string]metric{}}
	for _, s := range list {
		m, ok := out.metrics[s.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = metric{Value: 0, Unit: s.unit}
		}
		result.Metrics[s.name] = m
	}
	b, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcqebench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !result.Correct {
		return 1
	}
	return 0
}

// A run sets its workload up at least setupRepeats times and until
// setupTime has passed, so cheap set-ups get a steadier median; setup_s
// is the median.
const (
	setupRepeats = 3
	setupTime    = time.Second
)

// repeatSetup builds the environment repeatedly, discarding all but the
// last, and returns it with the median set-up time in seconds.
func repeatSetup[T any](setup func() (T, error), discard func(T) error) (T, float64, error) {
	var env T
	var times []float64
	for start := time.Now(); len(times) < setupRepeats || time.Since(start) < setupTime; {
		if len(times) > 0 {
			if err := discard(env); err != nil {
				return env, 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		env = e
	}
	return env, medianOf(times), nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEndMetrics fills the end-to-end metrics of an untraced run.
func endToEndMetrics(res *loopResult, setupS, heap float64, out *outcomes) {
	m := out.metrics
	m.set("setup_s", setupS)
	m.set("query_p50_ms", res.reads.median())
	p99, used := res.reads.tail(0.99)
	m.set("query_p99_ms", p99)
	out.notes = append(out.notes, fmt.Sprintf("query_p99_ms is the p%.2f of %d reads", used*100, res.reads.n()))
	m.set("throughput_rps", float64(res.attempted-res.failed-res.wrong)/res.wall.Seconds())
	m.set("heap_mb", heap)
	if res.proposes.n() > 0 {
		m.set("propose_p50_ms", res.proposes.median())
		p90, used := res.proposes.tail(0.9)
		m.set("propose_p90_ms", p90)
		out.notes = append(out.notes, fmt.Sprintf("propose_p90_ms is the p%.2f of %d proposals", used*100, res.proposes.n()))
	}
	if res.applies.n() > 0 {
		m.set("apply_p50_ms", res.applies.median())
		p90, used := res.applies.tail(0.9)
		m.set("apply_p90_ms", p90)
		out.notes = append(out.notes, fmt.Sprintf("apply_p90_ms is the p%.2f of %d applies", used*100, res.applies.n()))
	}
	if res.explains.n() > 0 {
		m.set("explain_p50_ms", res.explains.median())
	}
	if len(res.costs) > 0 {
		sum := 0.0
		for _, c := range res.costs {
			sum += c
		}
		m.set("proposal_cost", sum/float64(len(res.costs)))
	}
	m.set("error_rate", float64(res.failed+res.wrong)/float64(res.attempted))
}

// tracedMetrics fills the metrics a traced run adds to the layer
// metrics: the runtime and load-generator figures of the untraced half
// (plain) and the tracing overhead, the difference in per-request
// service rate between the two halves.
func tracedMetrics(plain, traced *loopResult, out *outcomes) {
	m := out.metrics
	m.set("runtime.gc_pause_ms", float64(plain.gcPauseNs)/1e6)
	m.set("runtime.alloc_mb_per_op", float64(plain.allocBytes)/(1<<20)/float64(plain.attempted))
	late, _ := plain.late.tail(0.99)
	m.set("loadgen.late_p99_ms", late)
	m.set("trace.overhead_pct", (1-plain.busy.mean()/traced.busy.mean())*100)
	m.set("server.handler_panics", float64(traced.panics))
	m.set("server.reconnects", float64(traced.reconnects))
	m.set("server.rejected_429", float64(traced.rejected429))
	m.set("server.rejected_503", float64(traced.rejected503))
}

// endStateMetrics records what the engine holds at the end of a traced
// run.
func endStateMetrics(eng *core.Engine, mirror *relation.ConfidenceCache, out *outcomes) {
	out.metrics.set("relation.open_snapshots", float64(eng.Catalog().OpenSnapshots()))
	out.metrics.set("lineage.confcache_entries", float64(mirror.Len()))
	out.metrics.set("core.audit_events", float64(eng.Audit().Len()))
}

// add totals a run's counts and failure notes into out.
func (out *outcomes) add(res *loopResult, label string) {
	out.attempted += res.attempted
	out.failed += res.failed
	out.wrong += res.wrong
	for _, p := range res.problems {
		out.notes = append(out.notes, label+": "+p)
	}
}

// writeTrace stores a traced run's spans and notes where.
func writeTrace(cfg config, tr *tracer, out *outcomes) error {
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("spans written to %s (%d kept, %d dropped past the cap)", path, len(tr.kept), tr.dropped))
	return nil
}

// runInproc runs the report or improve workload.
func runInproc(cfg config) (*outcomes, error) {
	suppliers := reportSuppliers
	newStream := func() stream { return newReportStream(cfg.seed) }
	// Warm-up runs reportWarmup requests of a stream the measured one does
	// not share, so the measured run starts with a filled confidence
	// cache instead of timing the cache's first fill.
	var warm []op
	ws := newReportStream(^cfg.seed)
	for i := 0; i < reportWarmup; i++ {
		warm = append(warm, ws.next())
	}
	if cfg.workload == "improve" {
		suppliers = improveSuppliers
		newStream = func() stream { return newImproveStream(cfg.seed) }
		warm = []op{
			{kind: opRead, shape: "slice", query: improveQuery(0)},
			{kind: opPropose, shape: "slice-propose", query: improveQuery(0), theta: 0.3},
		}
	}
	setup := func() (*inproc, error) { return newInproc(suppliers, cfg.seed, warm) }
	out := &outcomes{metrics: metricSet{}}
	verify := func(w *inproc, res *loopResult) {
		if err := checkReplay(w.eng); err != nil {
			res.problem("%v", err)
		}
	}

	if !cfg.trace {
		w, setupS, err := repeatSetup(setup, func(*inproc) error { return nil })
		if err != nil {
			return nil, err
		}
		res := w.closedLoop(newStream(), cfg.run, nil, nil)
		verify(w, res)
		out.add(res, cfg.workload)
		endToEndMetrics(res, setupS, heapMB(), out)
		runtime.KeepAlive(w)
		return out, nil
	}

	half := cfg.run / 2
	w, err := setup()
	if err != nil {
		return nil, err
	}
	plain := w.closedLoop(newStream(), half, nil, nil)
	verify(w, plain)
	out.add(plain, "untraced")
	w = nil
	runtime.GC()

	w, err = setup()
	if err != nil {
		return nil, err
	}
	w.mirror = relation.NewConfidenceCache(w.eng.Catalog(), 0)
	tr, ls := newTracer(time.Now(), 0, 1), &layerStats{}
	traced := w.closedLoop(newStream(), half, tr, ls)
	verify(w, traced)
	out.add(traced, "traced")
	layerMetrics(tr, ls, out.metrics)
	endStateMetrics(w.eng, w.mirror, out)
	tracedMetrics(plain, traced, out)
	return out, writeTrace(cfg, tr, out)
}

// runServe runs the serve workload.
func runServe(cfg config) (*outcomes, error) {
	setup := func() (*serveEnv, error) { return newServe(cfg.seed, cfg.repo) }
	out := &outcomes{metrics: metricSet{}}
	out.notes = append(out.notes, fmt.Sprintf("open loop at %d requests/s", serveRate))

	if !cfg.trace {
		e, setupS, err := repeatSetup(setup, (*serveEnv).close)
		if err != nil {
			return nil, err
		}
		res := e.openLoop(serveSchedule(cfg.seed, e.queries, serveRate, cfg.run), nil, nil)
		out.add(res, "serve")
		endToEndMetrics(res, setupS, heapMB(), out)
		late, _ := res.late.tail(0.99)
		out.notes = append(out.notes, fmt.Sprintf("load generator p99 lateness %.3f ms; %d transport errors, %d handler panics, %d reconnects; %d 429, %d 503, %d other HTTP errors",
			late, res.transportErrors, res.panics, res.reconnects, res.rejected429, res.rejected503, res.httpErrors))
		return out, e.close()
	}

	half := cfg.run / 2
	e, err := setup()
	if err != nil {
		return nil, err
	}
	plain := e.openLoop(serveSchedule(cfg.seed, e.queries, serveRate, half), nil, nil)
	out.add(plain, "untraced")
	if err := e.close(); err != nil {
		return nil, err
	}

	e, err = setup()
	if err != nil {
		return nil, err
	}
	e.mirror = relation.NewConfidenceCache(e.eng.Catalog(), 0)
	tracers := make([]*tracer, e.conns)
	t0 := time.Now()
	for i := range tracers {
		tracers[i] = newTracer(t0, i, len(tracers))
	}
	ls := &layerStats{}
	// The server times its query handler into the engine's registry.
	handler := e.eng.Metrics().Histogram("server.handler.query.seconds", obs.LatencyBuckets)
	sum0, n0 := handler.Sum(), handler.Count()
	traced := e.openLoop(serveSchedule(cfg.seed, e.queries, serveRate, half), tracers, ls)
	out.metrics.set("server.handler_ms", (handler.Sum()-sum0)/float64(handler.Count()-n0)*1e3)
	out.add(traced, "traced")
	tr := tracers[0]
	for _, o := range tracers[1:] {
		tr.merge(o)
	}
	layerMetrics(tr, ls, out.metrics)
	endStateMetrics(e.eng, e.mirror, out)
	tracedMetrics(plain, traced, out)
	if err := writeTrace(cfg, tr, out); err != nil {
		return nil, err
	}
	return out, e.close()
}
