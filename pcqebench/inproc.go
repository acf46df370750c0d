package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
	"pcqe/internal/workload"
)

// Identities of the generated database's policies.
const (
	analystUser    = "ann"
	analystPurpose = "reporting"
	analystBeta    = 0.12
	managerUser    = "mark"
	managerPurpose = "investment"
	managerBeta    = 0.06
)

// newPolicies builds the policy store: an analyst role for reporting
// and a manager role for investment decisions.
func newPolicies() (*policy.Store, error) {
	rbac := policy.NewRBAC()
	purposes := policy.NewPurposeTree()
	store := policy.NewStore(rbac, purposes)
	for _, p := range []struct {
		user, role, purpose string
		beta                float64
	}{
		{analystUser, "analyst", analystPurpose, analystBeta},
		{managerUser, "manager", managerPurpose, managerBeta},
	} {
		rbac.AddRole(p.role)
		if err := rbac.AssignUser(p.user, p.role); err != nil {
			return nil, err
		}
		if err := purposes.Add(p.purpose, ""); err != nil {
			return nil, err
		}
		if err := store.Add(policy.ConfidencePolicy{Role: p.role, Purpose: p.purpose, Beta: p.beta}); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// newEngine generates the Suppliers/Orders database and wraps it in an
// engine with an audit journal, as pcqed runs it.
func newEngine(suppliers int, seed int64) (*core.Engine, []string, error) {
	cat, queries, err := workload.GenerateDB(workload.DBParams{
		Suppliers: suppliers, OrdersPerSupplier: ordersPerSupplier, Regions: regions, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	store, err := newPolicies()
	if err != nil {
		return nil, nil, err
	}
	eng := core.NewEngine(cat, store, nil)
	eng.SetAudit(&core.AuditLog{})
	return eng, queries, nil
}

// stream yields a workload's requests in seeded order.
type stream interface{ next() op }

// inproc drives core.Engine directly with one closed-loop client.
type inproc struct {
	eng *core.Engine
	// mirror is the benchmark's own confidence cache, used by traced
	// runs to time ConfidenceAtAcc per row.
	mirror *relation.ConfidenceCache
}

// newInproc builds an engine of the given size and warms it with the
// given requests.
func newInproc(suppliers int, seed int64, warm []op) (*inproc, error) {
	eng, _, err := newEngine(suppliers, seed)
	if err != nil {
		return nil, err
	}
	w := &inproc{eng: eng}
	for _, o := range warm {
		if _, err := w.evaluate(o); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.shape, err)
		}
	}
	return w, nil
}

// evaluate runs one request as the analyst, turning a panic into an
// error.
func (w *inproc) evaluate(o op) (resp *core.Response, err error) {
	req := core.Request{User: analystUser, Purpose: analystPurpose, Query: o.query, MinFraction: o.theta}
	err = guard(func() (err error) {
		resp, err = w.eng.EvaluateContext(context.Background(), req)
		return err
	})
	return resp, err
}

// apply applies a proposal, turning a panic into an error.
func (w *inproc) apply(p *core.Proposal) error {
	return guard(func() error { return w.eng.Apply(p) })
}

// loopResult is what one measured run of a workload observed.
type loopResult struct {
	attempted, failed, wrong int
	reads, proposes, applies latencies
	explains                 latencies
	// busy holds each request's service time (ms): send to answer.
	busy  latencies
	costs []float64
	wall  time.Duration
	// gcPauseNs and allocBytes are the runtime's totals over the run.
	gcPauseNs, allocBytes uint64
	problems              []string
	// serve only.
	late                        latencies
	panics, reconnects          int64
	rejected429, rejected503    int64
	transportErrors, httpErrors int64
}

// problem records a wrong answer.
func (r *loopResult) problem(format string, args ...any) {
	r.wrong++
	r.note(format, args...)
}

// note keeps the first few failure messages for the report.
func (r *loopResult) note(format string, args ...any) {
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// memStats samples the runtime counters a run reports.
func memStats() (pauseNs, alloc uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs, ms.TotalAlloc
}

// closedLoop issues the stream's requests back to back until d of
// measured time has passed. Output checks run with the clock paused.
// With a tracer, every request is replayed layer by layer (traceOp).
func (w *inproc) closedLoop(s stream, d time.Duration, tr *tracer, ls *layerStats) *loopResult {
	res := &loopResult{}
	runtime.GC() // start from a collected heap, as every run does
	pause0, alloc0 := memStats()
	start := time.Now()
	var paused time.Duration
	for time.Since(start)-paused < d {
		o := s.next()
		res.attempted++
		t := time.Now()
		var resp *core.Response
		var err error
		if tr != nil {
			resp, err = w.traceOp(o, tr, ls)
		} else {
			resp, err = w.evaluate(o)
		}
		ms := msSince(t)
		res.busy.add(ms)
		if o.kind == opPropose {
			res.proposes.add(ms)
		} else {
			res.reads.add(ms)
		}
		if err != nil {
			res.failed++
			res.note("%s: %v", o.shape, err)
			continue
		}
		if o.check {
			c := time.Now()
			if err := checkResponse(w.eng.Catalog(), resp); err != nil {
				res.problem("%s %q: %v", o.shape, o.query, err)
			}
			paused += time.Since(c)
		}
		if resp.Proposal == nil {
			continue
		}
		res.costs = append(res.costs, resp.Proposal.Cost())
		if !o.apply {
			continue
		}
		res.attempted++
		t = time.Now()
		if tr != nil {
			err = w.traceApply(resp.Proposal, tr)
		} else {
			err = w.apply(resp.Proposal)
		}
		ms = msSince(t)
		res.applies.add(ms)
		res.busy.add(ms)
		if err != nil {
			res.failed++
			res.note("apply: %v", err)
			continue
		}
		c := time.Now()
		re := o
		re.theta = 0
		if after, err := w.evaluate(re); err != nil {
			res.problem("re-run after apply: %v", err)
		} else if err := checkImproved(after, o.theta); err != nil {
			res.problem("%q: %v", o.query, err)
		}
		paused += time.Since(c)
	}
	res.wall = time.Since(start) - paused
	pause1, alloc1 := memStats()
	res.gcPauseNs, res.allocBytes = pause1-pause0, alloc1-alloc0
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// allocBytes reads the runtime's cumulative heap allocation counter
// without stopping the world.
func allocBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// guard runs f, converting a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// replayLayers calls each layer's public entry point for one request
// at the current version, in a span each: sql.Parse,
// sql.PlanDetailedAt, relation.RunAt, ConfidenceAtAcc per result row and
// policy.Store.Threshold. Explains stop after planning. Failures are
// recorded on the failing span; the request itself is judged by the
// engine call that follows.
func replayLayers(tr *tracer, root int32, eng *core.Engine, mirror *relation.ConfidenceCache, o op, user, purpose string, ls *layerStats) {
	cat := eng.Catalog()
	snap := cat.Snapshot()
	defer snap.Release()
	var stmt *sql.SelectStmt
	id := tr.begin("sql.Parse", root)
	if err := guard(func() (err error) { stmt, err = sql.Parse(o.query); return err }); err != nil {
		tr.fail(id, err.Error())
		return
	}
	tr.end(id)
	var plan relation.Operator
	id = tr.begin("sql.PlanDetailedAt", root)
	if err := guard(func() (err error) { plan, _, err = sql.PlanDetailedAt(cat, stmt, snap.Version()); return err }); err != nil {
		tr.fail(id, err.Error())
		return
	}
	tr.end(id)
	if o.kind == opExplain {
		return
	}
	var rows []*relation.Tuple
	a0 := allocBytes()
	id = tr.begin("relation.RunAt", root)
	err := guard(func() (err error) { rows, err = relation.RunAt(plan, snap.Version()); return err })
	tr.end(id)
	a1 := allocBytes()
	if err != nil {
		tr.fail(id, err.Error())
		return
	}
	var acc relation.ConfCacheStats
	err = guard(func() error {
		for _, t := range rows {
			id := tr.begin("lineage.ConfidenceAtAcc", root)
			mirror.ConfidenceAtAcc(t, snap, &acc)
			tr.end(id)
		}
		return nil
	})
	if err != nil {
		tr.fail(int32(len(tr.cur)-1), err.Error())
	}
	id = tr.begin("policy.Store.Threshold", root)
	eng.Policies().Threshold(user, purpose)
	tr.end(id)
	ls.Lock()
	defer ls.Unlock()
	ls.runs++
	ls.rowsOut += int64(len(rows))
	ls.execAllocBytes += a1 - a0
	ls.lineageReqs++
	ls.conf = addConfStats(ls.conf, acc)
}

// addConfStats sums two confidence-cache counter snapshots: a − (0 − b).
func addConfStats(a, b relation.ConfCacheStats) relation.ConfCacheStats {
	var zero relation.ConfCacheStats
	return a.Sub(zero.Sub(b))
}

// traceOp is one traced request: the layer replay, then the engine call
// whose phase spans are grafted under it.
func (w *inproc) traceOp(o op, tr *tracer, ls *layerStats) (*core.Response, error) {
	defer tr.finish()
	root := tr.begin("request", -1)
	defer tr.end(root)
	replayLayers(tr, root, w.eng, w.mirror, o, analystUser, analystPurpose, ls)
	id := tr.begin("core.EvaluateContext", root)
	resp, err := w.evaluate(o)
	if err != nil {
		tr.fail(id, err.Error())
		return nil, err
	}
	tr.end(id)
	tr.graft(resp.Timings, id)
	ls.Lock()
	ls.addEngine(phaseOfSpan(resp.Timings))
	if resp.Proposal != nil {
		ls.proposals++
		ls.increments += int64(len(resp.Proposal.Increments()))
	}
	ls.Unlock()
	return resp, nil
}

// traceApply is Engine.Apply in its own traced request.
func (w *inproc) traceApply(p *core.Proposal, tr *tracer) error {
	defer tr.finish()
	id := tr.begin("core.Engine.Apply", -1)
	err := w.apply(p)
	if err != nil {
		tr.fail(id, err.Error())
		return err
	}
	tr.end(id)
	return nil
}
