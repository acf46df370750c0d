package core

import (
	"strings"
	"testing"

	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// TestEngineCacheObservability checks the optimizer caches surface
// through the engine: plan-cache and confidence-cache deltas on the
// request span tree, lineage-class row totals, and the mirrored
// metrics counters.
func TestEngineCacheObservability(t *testing.T) {
	e := newVentureEngine(t, nil)
	m := obs.New()
	e.SetMetrics(m)
	req := Request{User: "sue", Query: ventureQuery, Purpose: "analysis"}

	first, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}

	eval1 := first.Timings.Find("eval")
	if eval1.Attr("plan_cache_misses") != 1 || eval1.Attr("plan_cache_hits") != 0 {
		t.Errorf("first eval: hits=%d misses=%d, want 0/1",
			eval1.Attr("plan_cache_hits"), eval1.Attr("plan_cache_misses"))
	}
	eval2 := second.Timings.Find("eval")
	if eval2.Attr("plan_cache_hits") != 1 || eval2.Attr("plan_cache_misses") != 0 {
		t.Errorf("second eval: hits=%d misses=%d, want 1/0",
			eval2.Attr("plan_cache_hits"), eval2.Attr("plan_cache_misses"))
	}
	// The running example joins and filters but never references
	// _confidence, so the cost-based planner owns it; DISTINCT means
	// the lineage hint is may-share.
	if eval2.Attr("cost_based") != 1 {
		t.Errorf("running example should be cost-based planned")
	}
	if eval2.Attr("lineage_hint_read_once") != 0 {
		t.Errorf("DISTINCT query must carry the may-share hint")
	}

	lin1 := first.Timings.Find("lineage")
	if lin1 == nil {
		t.Fatalf("no lineage span:\n%s", first.Timings.Tree())
	}
	rows := lin1.Attr("rows")
	if rows == 0 {
		t.Fatal("lineage span must count rows")
	}
	// Every lineage class total must reconcile with the row count.
	classed := lin1.Attr("readonce_rows") + lin1.Attr("bounded_rows") + lin1.Attr("hard_rows")
	if classed != rows {
		t.Errorf("class totals %d != rows %d", classed, rows)
	}
	// DISTINCT merges ZStart's two join rows, (02 ∧ 13) and (03 ∧ 13),
	// into one result; the builder factors the shared 13 out, so the
	// lineage is the read-once 13 ∧ (02 ∨ 03) and takes no pivots.
	if lin1.Attr("readonce_rows") != rows || lin1.Attr("bounded_pivots") != 0 {
		t.Errorf("readonce_rows = %d (want %d), bounded_pivots = %d (want 0)",
			lin1.Attr("readonce_rows"), rows, lin1.Attr("bounded_pivots"))
	}
	if lin := first.Released[0].Tuple.Lineage; !lin.ReadOnce() || lin.String() != "(t4 & (t2 | t3))" {
		t.Errorf("ZStart lineage = %s, want the read-once (t4 & (t2 | t3))", lin)
	}
	if lin1.Attr("conf_cache_misses") == 0 {
		t.Error("first request must miss the confidence cache")
	}
	lin2 := second.Timings.Find("lineage")
	if lin2.Attr("conf_cache_hits") != rows || lin2.Attr("conf_cache_misses") != 0 {
		t.Errorf("second request: conf hits=%d misses=%d, want %d/0",
			lin2.Attr("conf_cache_hits"), lin2.Attr("conf_cache_misses"), rows)
	}

	snap := m.Snapshot().String()
	for _, metric := range []string{"sql.plancache.hits 1", "sql.plancache.misses 1", "engine.confcache.hits"} {
		if !strings.Contains(snap, metric) {
			t.Errorf("metrics snapshot missing %q:\n%s", metric, snap)
		}
	}

	if h, ms := e.PlanCacheStats(); h != 1 || ms != 1 {
		t.Errorf("PlanCacheStats = %d/%d, want 1/1", h, ms)
	}
	cc := e.ConfCacheStats()
	if cc.Hits != rows || cc.Misses != rows {
		t.Errorf("ConfCacheStats = %+v, want %d hits and misses", cc, rows)
	}
}

// TestEngineBoundedPivotAttrs pins the bounded-pivot span attributes on
// a lineage that stays shared after factoring: the non-hierarchical
// join R(x), S(x,y), T(y). Its DISTINCT lineage OR_xy(r_x ∧ s_xy ∧ t_y)
// factors on the r_x, but each t_y still occurs under both.
func TestEngineBoundedPivotAttrs(t *testing.T) {
	cat := relation.NewCatalog()
	r, err := cat.CreateTable("R", relation.NewSchema(
		relation.Column{Name: "g", Type: relation.TypeInt},
		relation.Column{Name: "x", Type: relation.TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", relation.NewSchema(
		relation.Column{Name: "x", Type: relation.TypeInt},
		relation.Column{Name: "y", Type: relation.TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	tt, err := cat.CreateTable("T", relation.NewSchema(
		relation.Column{Name: "y", Type: relation.TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	x := cat.Begin()
	for i := int64(1); i <= 2; i++ {
		x.MustInsert(r, 0.5, nil, relation.Int(0), relation.Int(i))
		x.MustInsert(tt, 0.5, nil, relation.Int(i))
		for j := int64(1); j <= 2; j++ {
			x.MustInsert(s, 0.5, nil, relation.Int(i), relation.Int(j))
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	rbac := policy.NewRBAC()
	rbac.AddRole("r")
	if err := rbac.AssignUser("u", "r"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	if err := purposes.Add("p", ""); err != nil {
		t.Fatal(err)
	}
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "r", Purpose: "p", Beta: 0.01}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat, store, nil)
	resp, err := e.Evaluate(Request{User: "u", Purpose: "p",
		Query: `SELECT DISTINCT R.g FROM R JOIN S ON R.x = S.x JOIN T ON S.y = T.y`})
	if err != nil {
		t.Fatal(err)
	}
	lin := resp.Timings.Find("lineage")
	if lin == nil || lin.Attr("rows") != 1 {
		t.Fatalf("want one lineage row:\n%s", resp.Timings.Tree())
	}
	if lin.Attr("bounded_rows") != 1 || lin.Attr("readonce_rows") != 0 {
		t.Errorf("bounded_rows = %d, readonce_rows = %d, want 1/0",
			lin.Attr("bounded_rows"), lin.Attr("readonce_rows"))
	}
	if lin.Attr("bounded_pivots") == 0 {
		t.Error("shared formula must record its Shannon pivots")
	}
}

// TestEngineConfidenceCacheFollowsImprovement: applying an improvement
// plan raises base confidences; the next evaluation must see the new
// result confidence, not a cached pre-improvement value.
func TestEngineConfidenceCacheFollowsImprovement(t *testing.T) {
	e := newVentureEngine(t, nil)
	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil || len(resp.Released) != 0 {
		t.Fatalf("expected a blocked result with a proposal, got %+v", resp)
	}
	withheld := resp.Withheld[0].Confidence
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	after, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Released) != 1 {
		t.Fatalf("post-apply: released=%d, want 1", len(after.Released))
	}
	if after.Released[0].Confidence <= withheld {
		t.Errorf("confidence %v not raised above pre-apply %v (stale cache?)",
			after.Released[0].Confidence, withheld)
	}
}
