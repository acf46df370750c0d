package main

import (
	"strings"
	"sync"
	"time"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/server"
)

// phase is the engine's request span tree as either transport delivers
// it: Response.Timings in process, the wire "timings" tree over HTTP.
type phase struct {
	name     string
	dur      time.Duration
	attrs    map[string]int64
	children []*phase
}

func phaseOfSpan(s *obs.Span) *phase {
	if s == nil {
		return nil
	}
	p := &phase{name: s.Name(), dur: s.Duration(), attrs: s.Attrs()}
	for _, c := range s.Children() {
		p.children = append(p.children, phaseOfSpan(c))
	}
	return p
}

func phaseOfWire(w *server.WireSpan) *phase {
	if w == nil {
		return nil
	}
	p := &phase{name: w.Name, dur: time.Duration(w.Micros) * time.Microsecond, attrs: w.Attrs}
	for _, c := range w.Children {
		p.children = append(p.children, phaseOfWire(c))
	}
	return p
}

// find returns the first node named name (or, with a trailing '*', the
// first whose name has that prefix) in depth-first order.
func (p *phase) find(name string) *phase {
	if p == nil {
		return nil
	}
	if p.name == name || (strings.HasSuffix(name, "*") && strings.HasPrefix(p.name, strings.TrimSuffix(name, "*"))) {
		return p
	}
	for _, c := range p.children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

// layerStats accumulates the per-layer counters of one traced run that
// do not come from benchmark-side span durations.
type layerStats struct {
	sync.Mutex
	evals                    int64 // engine evaluations with a timing tree
	evalNs, otherNs          int64
	planHits, planMisses     int64
	confHits, confMisses     int64
	filterNs                 int64
	runs                     int64 // relation.RunAt calls
	rowsOut, execAllocBytes  int64
	lineageReqs              int64
	conf                     relation.ConfCacheStats
	solves                   int64
	solveNs                  int64
	nodes, steps, pivots     int64
	groups                   int64
	proposals, increments    int64
	queries                  int64 // /v1/query round trips with timings
	wireNs                   int64
	responses, responseBytes int64
}

// addEngine folds one engine timing tree (rooted at the engine's
// "request" span) into the counters.
func (l *layerStats) addEngine(root *phase) {
	req := root.find("request")
	if req == nil {
		return
	}
	l.evals++
	l.evalNs += int64(req.dur)
	other := req.dur
	for _, c := range req.children {
		other -= c.dur
	}
	l.otherNs += int64(other)
	if ev := req.find("eval"); ev != nil {
		l.planHits += ev.attrs["plan_cache_hits"]
		l.planMisses += ev.attrs["plan_cache_misses"]
	}
	if lin := req.find("lineage"); lin != nil {
		l.confHits += lin.attrs["conf_cache_hits"]
		l.confMisses += lin.attrs["conf_cache_misses"]
	}
	if pf := req.find("policy-filter"); pf != nil {
		l.filterNs += int64(pf.dur)
	}
	if solve := req.find("solve:*"); solve != nil {
		l.solves++
		l.solveNs += int64(solve.dur)
		l.nodes += solve.attrs["nodes"]
		l.steps += solve.attrs["steps"]
		l.pivots += solve.attrs["pivots"]
		if part := solve.find("partition"); part != nil {
			l.groups += part.attrs["groups"]
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics assembles the per-layer metrics of a traced run from the
// tracer's span aggregates and the layer counters.
func layerMetrics(tr *tracer, l *layerStats, m metricSet) {
	m.set("sql.parse_us", tr.perCallMs("sql.Parse", false)*1e3)
	m.set("sql.plan_us", tr.perCallMs("sql.PlanDetailedAt", false)*1e3)
	m.set("sql.plancache_hit_ratio", ratio(l.planHits, l.planHits+l.planMisses))
	m.set("relation.exec_ms", tr.perCallMs("relation.RunAt", true))
	m.set("relation.rows_out", ratio(l.rowsOut, l.runs))
	m.set("relation.exec_alloc_kb", ratio(l.execAllocBytes, l.runs)/1024)
	m.set("lineage.conf_ms", tr.perReqMs("lineage.ConfidenceAtAcc"))
	m.set("lineage.pivots", ratio(l.conf.Pivots[relation.LineageBounded]+l.conf.Pivots[relation.LineageHard], l.lineageReqs))
	m.set("lineage.readonce_rows", ratio(l.conf.Rows[relation.LineageReadOnce], l.lineageReqs))
	m.set("lineage.bounded_rows", ratio(l.conf.Rows[relation.LineageBounded], l.lineageReqs))
	m.set("lineage.hard_rows", ratio(l.conf.Rows[relation.LineageHard], l.lineageReqs))
	m.set("lineage.confcache_hit_ratio", ratio(l.confHits, l.confHits+l.confMisses))
	m.set("policy.threshold_us", tr.perCallMs("policy.Store.Threshold", false)*1e3)
	m.set("policy.filter_ms", ratio(l.filterNs, l.evals)/1e6)
	m.set("strategy.solve_ms", ratio(l.solveNs, l.solves)/1e6)
	m.set("strategy.nodes", ratio(l.nodes, l.solves))
	m.set("strategy.steps", ratio(l.steps, l.solves))
	m.set("strategy.pivots", ratio(l.pivots, l.solves))
	m.set("strategy.groups", ratio(l.groups, l.solves))
	m.set("strategy.increments", ratio(l.increments, l.proposals))
	m.set("core.evaluate_ms", ratio(l.evalNs, l.evals)/1e6)
	m.set("core.other_ms", ratio(l.otherNs, l.evals)/1e6)
	m.set("core.apply_ms", tr.perCallMs("core.Engine.Apply", false))
	m.set("server.roundtrip_ms", tr.perCallMs("http.roundtrip", false))
	m.set("server.wire_ms", ratio(l.wireNs, l.queries)/1e6)
	m.set("server.response_kb", ratio(l.responseBytes, l.responses)/1024)
}
