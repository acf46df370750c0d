package core

import (
	"context"
	"fmt"
	"sort"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// Proposal is the strategy finder's answer: which base tuples to
// improve, to what confidence, and at what total cost. The user (or the
// caller acting for them) accepts it with Engine.Apply.
type Proposal struct {
	instance *strategy.Instance
	plan     *strategy.Plan
	solver   string
	// skipped counts withheld rows whose lineage could not enter the
	// optimization (non-monotone lineage from EXCEPT-style queries).
	skipped int
	// partial marks a plan cut short by a deadline or budget: feasible
	// for fewer results (or unrefined) compared to a full solve.
	partial bool
	// user and purpose identify the request that triggered the
	// proposal, for the audit journal.
	user, purpose string
	// readVersion is the committed catalog version the proposal's
	// instance was built from; Apply records it alongside the version
	// its transaction commits, bracketing the plan in the audit journal.
	readVersion int64
}

// Cost is the total improvement cost of the plan.
func (p *Proposal) Cost() float64 { return p.plan.Cost }

// ReadVersion is the committed catalog version the proposal was built
// from (0 for proposals built before version tracking).
func (p *Proposal) ReadVersion() int64 { return p.readVersion }

// Solver names the algorithm that produced the plan.
func (p *Proposal) Solver() string { return p.solver }

// Skipped reports how many withheld rows were not improvable (their
// lineage contains negation).
func (p *Proposal) Skipped() int { return p.skipped }

// Partial reports whether the plan is a best-effort incumbent returned
// under a deadline or budget rather than a completed solve. Partial
// plans are still internally consistent (they pass Verify when they
// satisfy enough results) but may cost more or satisfy fewer rows than
// a full solve would.
func (p *Proposal) Partial() bool { return p.partial }

// DegradedGroups reports how many divide-and-conquer group sub-solves
// behind the plan panicked or exhausted their budget and were skipped
// or served by a cheaper fallback (0 for other solvers and clean
// solves). The engine journals an audit event when it is non-zero, so
// silently absorbed group failures stay reviewable.
func (p *Proposal) DegradedGroups() int { return p.plan.Degraded }

// Increment is one suggested confidence raise.
type Increment struct {
	Var  lineage.Var
	From float64
	To   float64
	Cost float64
}

// Increments lists the per-tuple raises in descending cost order.
func (p *Proposal) Increments() []Increment {
	var out []Increment
	for i, b := range p.instance.Base {
		np := p.plan.NewP[i]
		if conf.GT(np, b.P) {
			out = append(out, Increment{
				Var:  b.Var,
				From: b.P,
				To:   np,
				Cost: b.Cost.Increment(b.P, np),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cost != out[b].Cost {
			return out[a].Cost > out[b].Cost
		}
		return out[a].Var < out[b].Var
	})
	return out
}

// propose builds the optimization instance from the withheld rows and
// solves it under the request context and the request's solver budget
// (work-counter bounds and worker-pool width from Request via
// Request.budget; the wall clock rides on ctx). When the solver runs
// out of deadline or budget but still produced an anytime incumbent,
// propose returns that plan as a partial Proposal alongside the
// *strategy.BudgetExceededError so the caller can degrade instead of
// fail.
func (e *Engine) propose(ctx context.Context, resp *Response, need int, budget strategy.Budget, snap *relation.Snapshot) (*Proposal, error) {
	in := &strategy.Instance{
		Beta: resp.Threshold + betaMargin,
		// The paper's evaluation grid uses δ=0.1; keep it as the
		// default planning granularity.
		Delta: 0.1,
	}
	seen := map[lineage.Var]int{}
	skipped := 0
	for _, row := range resp.Withheld {
		if !row.Tuple.Lineage.Monotone() {
			skipped++
			continue
		}
		// Simplification (idempotence/absorption) shrinks lineage that
		// duplicate-eliminating operators inflated, which keeps the
		// optimization formulas small and read-once where possible.
		formula := lineage.Simplify(row.Tuple.Lineage)
		for _, v := range formula.Vars() {
			if _, ok := seen[v]; ok {
				continue
			}
			// Resolve at the evaluation's snapshot: the instance's starting
			// confidences must match the ones the withheld rows were
			// filtered under, not whatever a concurrent commit left behind.
			base, ok := snap.BaseTupleByVar(v)
			if !ok {
				return nil, fmt.Errorf("core: lineage references unknown base tuple %d", int(v))
			}
			bt := strategy.BaseTuple{
				Var:  v,
				P:    base.Confidence,
				MaxP: base.MaxConf,
				Cost: base.Cost,
			}
			if bt.Cost == nil || base.Confidence >= base.MaxConf {
				// Not improvable: freeze at the current confidence.
				bt.MaxP = base.Confidence
				//lint:allow confrange exact zero-value probe: strategy treats
				// MaxP==0 as "unset, default to 1", so a genuinely frozen-at-0
				// tuple must dodge the sentinel with the tiniest nonzero cap.
				if bt.MaxP == 0 {
					bt.MaxP = 1e-12 // MaxP 0 means "default to 1" in strategy
				}
				bt.Cost = cost.Linear{Rate: 0}
			}
			seen[v] = len(in.Base)
			in.Base = append(in.Base, bt)
		}
		in.Results = append(in.Results, strategy.Result{
			ID:      len(in.Results),
			Formula: formula,
		})
	}
	if need > len(in.Results) {
		need = len(in.Results)
	}
	if need == 0 {
		return nil, strategy.ErrInfeasible
	}
	in.Need = need
	e.metrics.Gauge("engine.solver.workers").Set(int64(strategy.EffectiveWorkers(e.solver, budget)))
	plan, err := strategy.SolveContext(ctx, e.solver, in, budget)
	if plan == nil && err != nil {
		return nil, err
	}
	prop := &Proposal{
		instance: in, plan: plan, solver: e.solver.Name(), skipped: skipped,
		partial: plan.Partial, readVersion: snap.Version(),
	}
	return prop, err
}

// betaMargin lifts the optimization target infinitesimally above the
// policy threshold: Definition 1 releases rows with confidence strictly
// greater than β while the optimization constraints use ≥, so planning
// exactly to β could satisfy the solver yet still fail the policy.
const betaMargin = 1e-9

// Apply performs the data-quality improvement step: it writes the
// proposal's new confidences into the catalog as ONE transaction —
// every increment commits atomically or none does. A fault (injected
// at the "core.apply.increment" probe or genuine) mid-apply rolls the
// transaction back, journals an AuditRollback event and leaves every
// confidence bit-identical to the pre-transaction state. The audit
// event of a successful apply records the proposal's read version and
// the transaction's commit version. Re-evaluating the request
// afterwards releases the additional rows.
//
// Increments merge by maximum: a tuple whose confidence a concurrent
// apply already raised to (or past) the target is skipped rather than
// lowered, so overlapping plans compose instead of fighting.
func (e *Engine) Apply(p *Proposal) (err error) {
	if p == nil {
		return fmt.Errorf("core: nil proposal")
	}
	if err := p.instance.Verify(p.plan); err != nil {
		return fmt.Errorf("core: refusing to apply inconsistent proposal: %w", err)
	}
	x := e.catalog.Begin()
	defer func() {
		if r := recover(); r != nil {
			x.Rollback()
			err = fmt.Errorf("core: apply fault: %v", r)
			e.recordApplyRollback(p, err)
		}
	}()
	for i, b := range p.instance.Base {
		np := p.plan.NewP[i]
		if !conf.GT(np, b.P) {
			continue
		}
		fault.Probe("core.apply.increment")
		if cur, ok := x.ConfidenceOf(b.Var); ok && conf.GE(cur, np) {
			continue // already at or past the target: max-merge
		}
		if err := x.SetConfidence(b.Var, np); err != nil {
			x.Rollback()
			err = fmt.Errorf("core: applying increment to tuple %d: %w", int(b.Var), err)
			e.recordApplyRollback(p, err)
			return err
		}
	}
	commitVersion, err := x.Commit()
	if err != nil {
		err = fmt.Errorf("core: committing improvement plan: %w", err)
		e.recordApplyRollback(p, err)
		return err
	}
	e.recordAudit(AuditEvent{
		Kind: AuditApply, User: p.user, Purpose: p.purpose,
		Cost: p.plan.Cost, Increments: p.Increments(),
		ReadVersion: p.readVersion, CommitVersion: commitVersion,
	})
	if e.metrics != nil {
		e.metrics.Counter("engine.applied").Inc()
		// The histogram's running sum is the cumulative improvement
		// spend, mirroring AuditLog.TotalImprovementSpend.
		e.metrics.Histogram("engine.apply.cost", obs.CostBuckets).Observe(p.plan.Cost)
	}
	return nil
}

// recordApplyRollback journals a failed, rolled-back apply.
func (e *Engine) recordApplyRollback(p *Proposal, cause error) {
	e.recordAudit(AuditEvent{
		Kind: AuditRollback, User: p.user, Purpose: p.purpose,
		Cost: p.plan.Cost, ReadVersion: p.readVersion,
		Detail: cause.Error(),
	})
	e.metrics.Counter("engine.apply.rollbacks").Inc()
}

// EvaluateMulti implements the paper's multi-query extension
// (Section 4, last paragraph): several queries issued in a short period
// share one improvement plan. The search space is the union of the
// queries' base tuples; a combined plan must cover every query's need.
// Queries are planned sequentially against the accumulating confidence
// assignment (the divide-and-conquer combination idea), and each
// response's proposal is replaced by a shared one attached to every
// response that needed improvement.
func (e *Engine) EvaluateMulti(reqs []Request) ([]*Response, *Proposal, error) {
	return e.EvaluateMultiContext(context.Background(), reqs)
}

// EvaluateMultiContext is EvaluateMulti under a context: cancellation
// bounds both the per-query evaluations and the shared planning solve.
// A shared solve cut short by the context degrades to no shared plan
// (the individual responses stand alone), mirroring EvaluateContext.
func (e *Engine) EvaluateMultiContext(ctx context.Context, reqs []Request) ([]*Response, *Proposal, error) {
	resps := make([]*Response, len(reqs))
	// First pass: evaluate all queries without improvement planning.
	for i, req := range reqs {
		r := req
		r.MinFraction = 0
		resp, err := e.EvaluateContext(ctx, r)
		if err != nil {
			return nil, nil, fmt.Errorf("core: query %d: %w", i, err)
		}
		resps[i] = resp
	}

	// Build a combined instance: every query contributes its withheld
	// monotone rows, and carries its own need; the combined need is the
	// sum, with the constraint expressed by solving sequentially. One
	// snapshot pins the starting confidences of every block.
	snap := e.catalog.Snapshot()
	defer snap.Release()
	combined := &strategy.Instance{Delta: 0.1}
	seen := map[lineage.Var]int{}
	var maxBeta float64
	var blocks []queryBlock
	for i, req := range reqs {
		resp := resps[i]
		if !resp.PolicyApplied || req.MinFraction <= 0 {
			continue
		}
		need := resp.Need(req)
		if need == 0 {
			continue
		}
		if resp.Threshold > maxBeta {
			maxBeta = resp.Threshold
		}
		first := len(combined.Results)
		n := 0
		for _, row := range resp.Withheld {
			if !row.Tuple.Lineage.Monotone() {
				continue
			}
			for _, v := range row.Tuple.Lineage.Vars() {
				if _, ok := seen[v]; ok {
					continue
				}
				base, ok := snap.BaseTupleByVar(v)
				if !ok {
					return nil, nil, fmt.Errorf("core: lineage references unknown base tuple %d", int(v))
				}
				bt := strategy.BaseTuple{Var: v, P: base.Confidence, MaxP: base.MaxConf, Cost: base.Cost}
				if bt.Cost == nil || base.Confidence >= base.MaxConf {
					bt.MaxP = base.Confidence
					//lint:allow confrange exact zero-value probe (see propose):
					// MaxP==0 is strategy's "unset" sentinel.
					if bt.MaxP == 0 {
						bt.MaxP = 1e-12
					}
					bt.Cost = cost.Linear{Rate: 0}
				}
				seen[v] = len(combined.Base)
				combined.Base = append(combined.Base, bt)
			}
			combined.Results = append(combined.Results, strategy.Result{
				ID:      len(combined.Results),
				Formula: row.Tuple.Lineage,
			})
			n++
		}
		if need > n {
			need = n
		}
		if need > 0 {
			blocks = append(blocks, queryBlock{first: first, count: n, need: need})
		}
	}
	if len(blocks) == 0 {
		return resps, nil, nil
	}
	// The per-query needs become one instance whose Need is the sum;
	// the per-block minimums are enforced by post-checking and, if a
	// block falls short, topping it up with a block-local solve that
	// starts from the combined plan (mirrors the paper's "check whether
	// a solution is found for all queries").
	combined.Beta = maxBeta + betaMargin
	totalNeed := 0
	for _, b := range blocks {
		totalNeed += b.need
	}
	combined.Need = totalNeed
	// The shared solve gets its own root span (there is no single
	// response to hang it on); solver and per-group child spans attach
	// through the context, and an attached tracer retains the tree.
	shared := e.startSpan("strategy-shared")
	shared.SetAttr("queries", int64(len(blocks)))
	shared.SetAttr("need", int64(totalNeed))
	sctx := obs.ContextWithSpan(ctx, shared)
	// The shared solve serves every query at once; give it the most
	// permissive budget across the participating requests.
	budget := combinedBudget(reqs)
	e.metrics.Gauge("engine.solver.workers").Set(int64(strategy.EffectiveWorkers(e.solver, budget)))
	plan, err := strategy.SolveContext(sctx, e.solver, combined, budget)
	if err != nil && isDegradation(err) {
		// The shared solve was cut short by the deadline, a budget, or a
		// recovered solver fault. That is a reviewable policy decision:
		// mark every response that wanted improvement as degraded and
		// journal the event — whether or not an anytime incumbent
		// survives to become a partial shared proposal below.
		shared.SetStatus(err.Error())
		for i := range resps {
			if resps[i].PolicyApplied && resps[i].Need(reqs[i]) > 0 {
				resps[i].Degraded = err
				e.metrics.Counter("engine.degraded").Inc()
			}
		}
		user, purpose, query := multiAuditKey(reqs, resps)
		e.recordAudit(AuditEvent{
			Kind: AuditDegrade, User: user, Purpose: purpose, Query: query,
			Beta: combined.Beta, Partial: plan != nil, Detail: err.Error(),
		})
	}
	if plan == nil || (err != nil && !isDegradation(err)) {
		shared.End()
		return resps, nil, nil // no feasible shared plan; responses stand alone
	}
	plan = topUpBlocks(sctx, e, combined, plan, blocks, budget)
	shared.End()
	prop := &Proposal{
		instance: combined, plan: plan, solver: e.solver.Name(),
		partial: plan.Partial, readVersion: snap.Version(),
	}
	for i := range resps {
		if resps[i].PolicyApplied && resps[i].Need(reqs[i]) > 0 {
			resps[i].Proposal = prop
			if prop.user == "" {
				prop.user, prop.purpose = reqs[i].User, reqs[i].Purpose
			}
		}
	}
	e.recordAudit(AuditEvent{
		Kind: AuditPropose, User: prop.user, Purpose: prop.purpose,
		Beta: combined.Beta, Cost: plan.Cost,
		Increments: prop.Increments(), Partial: prop.partial,
	})
	if e.metrics != nil {
		e.metrics.Counter("engine.proposals").Inc()
		if prop.partial {
			e.metrics.Counter("engine.proposals.partial").Inc()
		}
		e.metrics.Histogram("engine.proposal.cost", obs.CostBuckets).Observe(plan.Cost)
	}
	return resps, prop, nil
}

// combinedBudget merges the participating requests' solver budgets for
// a shared multi-query solve: the widest worker pool any request asked
// for, and for each work counter the most permissive bound — any
// request with an unlimited counter (0) makes the shared counter
// unlimited, otherwise the largest allowance wins. The shared solve
// serves every query at once, so the tightest session must not starve
// its peers' planning.
func combinedBudget(reqs []Request) strategy.Budget {
	var b strategy.Budget
	for i, req := range reqs {
		if req.Workers > b.Workers {
			b.Workers = req.Workers
		}
		b.MaxNodes = mergeLimit(b.MaxNodes, req.MaxNodes, i == 0)
		b.MaxPivots = mergeLimit(b.MaxPivots, req.MaxPivots, i == 0)
		b.MaxSteps = mergeLimit(b.MaxSteps, req.MaxSteps, i == 0)
	}
	return b
}

// mergeLimit folds one request's work-counter bound into the running
// shared bound: 0 means unlimited and absorbs everything.
func mergeLimit(acc, next int, first bool) int {
	if first {
		return next
	}
	if acc == 0 || next == 0 {
		return 0
	}
	if next > acc {
		return next
	}
	return acc
}

// multiAuditKey picks the audit identity for a multi-query event: the
// first request whose response wanted improvement.
func multiAuditKey(reqs []Request, resps []*Response) (user, purpose, query string) {
	for i := range resps {
		if resps[i].PolicyApplied && resps[i].Need(reqs[i]) > 0 {
			return reqs[i].User, reqs[i].Purpose, reqs[i].Query
		}
	}
	if len(reqs) > 0 {
		return reqs[0].User, reqs[0].Purpose, reqs[0].Query
	}
	return "", "", ""
}

// queryBlock identifies one query's slice of the combined instance's
// results and its individual requirement.
type queryBlock struct{ first, count, need int }

// topUpBlocks ensures every query block meets its own need under the
// combined plan; blocks that fall short are re-solved locally starting
// from the combined confidences, then merged (max per tuple).
func topUpBlocks(ctx context.Context, e *Engine, combined *strategy.Instance, plan *strategy.Plan, blocks []queryBlock, budget strategy.Budget) *strategy.Plan {
	assign := func(p []float64) lineage.Assignment {
		idx := map[lineage.Var]int{}
		for i, b := range combined.Base {
			idx[b.Var] = i
		}
		return lineage.FuncAssignment(func(v lineage.Var) float64 { return p[idx[v]] })
	}
	// reaches reports whether formula f reaches β under a. The combined
	// solve validated every formula, so Prob cannot fail here; a failure
	// would count as not reaching β.
	reaches := func(f *lineage.Expr, a lineage.Assignment) bool {
		p, _, err := lineage.Prob(f, a)
		return err == nil && conf.GE(p, combined.Beta)
	}
	newP := append([]float64{}, plan.NewP...)
	partial := plan.Partial
	for _, blk := range blocks {
		sat := 0
		a := assign(newP)
		for ri := blk.first; ri < blk.first+blk.count; ri++ {
			if reaches(combined.Results[ri].Formula, a) {
				sat++
			}
		}
		if sat >= blk.need {
			continue
		}
		// Local solve from the combined state.
		sub := &strategy.Instance{Beta: combined.Beta, Delta: combined.Delta, Need: blk.need}
		mapping := []int{}
		seen := map[lineage.Var]bool{}
		for ri := blk.first; ri < blk.first+blk.count; ri++ {
			sub.Results = append(sub.Results, combined.Results[ri])
			for _, v := range combined.Results[ri].Formula.Vars() {
				if seen[v] {
					continue
				}
				seen[v] = true
				for bi, b := range combined.Base {
					if b.Var == v {
						nb := b
						nb.P = newP[bi]
						sub.Base = append(sub.Base, nb)
						mapping = append(mapping, bi)
					}
				}
			}
		}
		// A block solve cut short may still carry an anytime incumbent:
		// salvage it (the merged plan only improves) and record that the
		// result is partial, instead of discarding it with the error.
		sp, err := strategy.SolveContext(ctx, e.solver, sub, budget)
		if sp != nil {
			if err != nil || sp.Partial {
				partial = true
			}
			for si, bi := range mapping {
				if sp.NewP[si] > newP[bi] {
					newP[bi] = sp.NewP[si]
				}
			}
		}
	}
	total := 0.0
	for i, b := range combined.Base {
		total += b.Cost.Increment(b.P, newP[i])
	}
	out := &strategy.Plan{NewP: newP, Cost: total, Nodes: plan.Nodes, Partial: partial, Degraded: plan.Degraded}
	a := assign(newP)
	for ri, r := range combined.Results {
		if reaches(r.Formula, a) {
			out.Satisfied = append(out.Satisfied, ri)
		}
	}
	return out
}
