package relation_test

import (
	"runtime"
	"testing"

	"pcqe/internal/relation"
	"pcqe/internal/sql"
	"pcqe/internal/workload"
)

func generate(t *testing.T, suppliers, orders int) (*relation.Catalog, []string) {
	t.Helper()
	cat, queries, err := workload.GenerateDB(workload.DBParams{
		Suppliers: suppliers, OrdersPerSupplier: orders, Regions: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat, queries
}

// TestGeneratedQueriesNeedNoPivots runs the generator's queries, plus
// DISTINCT Region over the join, at 5K suppliers. All are hierarchical,
// so their lineage must come out read-once: no row may take a Shannon
// pivot. The per-region rollup used to build an AND with every supplier
// repeated once per order, which panicked in lineage.Compile past 24
// shared variables.
func TestGeneratedQueriesNeedNoPivots(t *testing.T) {
	cat, queries := generate(t, 5000, 10)
	queries = append(queries, `SELECT DISTINCT Region
		FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier`)
	cc := relation.NewConfidenceCache(cat, 0)
	snap := cat.Snapshot()
	defer snap.Release()
	for i, q := range queries {
		rows, _, err := sql.QuerySnap(snap, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(rows) == 0 {
			t.Fatalf("query %d returned no rows", i)
		}
		var acc relation.ConfCacheStats
		for _, r := range rows {
			if p := cc.ConfidenceAtAcc(r, snap, &acc); p < 0 || p > 1 {
				t.Fatalf("query %d: confidence %v", i, p)
			}
		}
		if shared := acc.Rows[relation.LineageBounded] + acc.Rows[relation.LineageHard]; shared != 0 {
			t.Errorf("query %d: %d of %d rows have shared lineage", i, shared, len(rows))
		}
		if pivots := acc.Pivots[relation.LineageBounded] + acc.Pivots[relation.LineageHard]; pivots != 0 {
			t.Errorf("query %d: %d Shannon pivots, want 0", i, pivots)
		}
	}
}

// TestDistinctLineageIsLinear guards DISTINCT's lineage construction
// against going quadratic again, without a timing bound: allocations
// and allocated bytes per input row of SELECT DISTINCT Region must stay
// within 1.5× between 5K and 40K suppliers. Growing each region's
// formula by one Or per row copied the child list every time, so bytes
// per row grew with the group size.
func TestDistinctLineageIsLinear(t *testing.T) {
	const q = `SELECT DISTINCT Region FROM Suppliers`
	perRow := func(suppliers int) (allocs, bytes float64) {
		cat, _ := generate(t, suppliers, 1)
		snap := cat.Snapshot()
		defer snap.Release()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sql.PlanAt(cat, stmt, snap.Version())
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := relation.RunAt(plan, snap.Version()); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		n := float64(suppliers)
		return allocs / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	smallAllocs, smallBytes := perRow(5000)
	largeAllocs, largeBytes := perRow(40000)
	if largeAllocs > 1.5*smallAllocs {
		t.Errorf("allocs per row: %.2f at 5K, %.2f at 40K (over 1.5×)", smallAllocs, largeAllocs)
	}
	if largeBytes > 1.5*smallBytes {
		t.Errorf("bytes per row: %.0f at 5K, %.0f at 40K (over 1.5×)", smallBytes, largeBytes)
	}
}
