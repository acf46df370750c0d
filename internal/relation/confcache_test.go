package relation

import (
	"math"
	"sync"
	"testing"

	"pcqe/internal/lineage"
)

// TestLineageClassBoundaries: evalClassified derives the class from the
// pivots lineage.Prob enumerated, so BoundedPivotLimit shared variables
// are still bounded and one more is hard.
func TestLineageClassBoundaries(t *testing.T) {
	v := func(i int) *lineage.Expr { return lineage.NewVar(lineage.Var(i)) }
	// sharedOr ORs two conjunctions over the same n variables, each with
	// one private variable: n Shannon pivots.
	sharedOr := func(n int) *lineage.Expr {
		left := []*lineage.Expr{v(100)}
		right := []*lineage.Expr{v(101)}
		for i := 1; i <= n; i++ {
			left = append(left, v(i))
			right = append(right, v(i))
		}
		return lineage.Or(lineage.And(left...), lineage.And(right...))
	}
	assign := lineage.FuncAssignment(func(x lineage.Var) float64 { return 0.5 + float64(x%7)/20 })
	for _, tc := range []struct {
		name   string
		e      *lineage.Expr
		class  LineageClass
		pivots int64
	}{
		{"read-once", lineage.And(lineage.Or(v(1), v(2)), v(3)), LineageReadOnce, 0},
		{"bounded", sharedOr(BoundedPivotLimit), LineageBounded, 1 << BoundedPivotLimit},
		{"hard", sharedOr(BoundedPivotLimit + 1), LineageHard, 1 << (BoundedPivotLimit + 1)},
	} {
		class, p, pivots := evalClassified(tc.e, assign)
		if class != tc.class || pivots != tc.pivots {
			t.Errorf("%s: class %v with %d pivots, want %v with %d", tc.name, class, pivots, tc.class, tc.pivots)
		}
		if want := bruteProb(t, tc.e, assign); math.Abs(p-want) > 1e-12 {
			t.Errorf("%s: p = %v, brute force %v", tc.name, p, want)
		}
	}
}

// bruteProb is the truth-table oracle, independent of the evaluation
// path the cache routes formulas to.
func bruteProb(t *testing.T, e *lineage.Expr, assign lineage.Assignment) float64 {
	t.Helper()
	p, err := lineage.ProbBruteForce(e, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// confCacheFixture builds a catalog with base rows and two derived
// tuples: one read-once, one with shared variables.
func confCacheFixture(t *testing.T) (*Catalog, *Tuple, *Tuple, []*BaseTuple) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []*BaseTuple
	for i, p := range []float64{0.3, 0.4, 0.1, 0.8} {
		rows = append(rows, tab.MustInsert(p, nil, Int(int64(i))))
	}
	v := func(i int) *lineage.Expr { return lineage.NewVar(rows[i].Var) }
	readOnce := NewTuple([]Value{Int(1)}, lineage.And(lineage.Or(v(0), v(1)), v(2)))
	shared := NewTuple([]Value{Int(2)}, lineage.Or(lineage.And(v(0), v(1)), lineage.And(v(0), v(3))))
	return c, readOnce, shared, rows
}

func TestConfidenceCacheValuesAndHits(t *testing.T) {
	c, readOnce, shared, _ := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)

	if got, want := cc.Confidence(readOnce), bruteProb(t, readOnce.Lineage, c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("read-once confidence = %v, want %v", got, want)
	}
	if got, want := cc.Confidence(shared), bruteProb(t, shared.Lineage, c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shared confidence = %v, want %v", got, want)
	}

	st := cc.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/2", st.Hits, st.Misses)
	}
	if st.Rows[LineageReadOnce] != 1 || st.Evals[LineageReadOnce] != 1 {
		t.Errorf("read-once counters = %+v", st)
	}
	if st.Rows[LineageBounded] != 1 || st.Pivots[LineageBounded] == 0 {
		t.Errorf("bounded class must record rows and pivots, got %+v", st)
	}
	if st.Pivots[LineageReadOnce] != 0 {
		t.Errorf("read-once path must never pivot, got %d", st.Pivots[LineageReadOnce])
	}

	cc.Confidence(readOnce)
	cc.Confidence(shared)
	st = cc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after second pass: hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}
}

// TestConfidenceCacheInvalidation is the guard the optimizer depends
// on: if the epoch check were removed, the cache would keep serving the
// pre-mutation probability and this test would fail.
func TestConfidenceCacheInvalidation(t *testing.T) {
	c, readOnce, shared, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	before := cc.Confidence(shared)
	cc.Confidence(readOnce)

	if err := c.SetConfidence(rows[0].Var, 0.95); err != nil {
		t.Fatal(err)
	}
	after := cc.Confidence(shared)
	want := bruteProb(t, shared.Lineage, c)
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("post-SetConfidence cache served %v, fresh evaluation gives %v", after, want)
	}
	if after == before {
		t.Fatalf("confidence unchanged (%v) after a base-tuple update the formula depends on", after)
	}
	st := cc.Stats()
	// The commit recomputed the dependent entry incrementally, so the
	// read after it is a hit on the fresh value, not a new miss.
	if st.Misses != 2 {
		t.Fatalf("commit-time re-evaluation must not add misses: misses=%d, want 2", st.Misses)
	}
	if st.IncrementalReevals < 1 {
		t.Fatalf("entry depending on the changed variable must re-evaluate at commit: reevals=%d", st.IncrementalReevals)
	}

	// Deleting base rows also bumps the confidence epoch.
	tab, err := c.Table("B")
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.ConfEpoch()
	if _, err := tab.Delete(nil); err != nil {
		t.Fatal(err)
	}
	if c.ConfEpoch() == epoch {
		t.Fatal("Delete must bump the confidence epoch")
	}
}

func TestConfidenceCacheEviction(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("B", NewSchema(Column{Name: "x", Type: TypeInt}))
	if err != nil {
		t.Fatal(err)
	}
	cc := NewConfidenceCache(c, 2)
	for i := 0; i < 5; i++ {
		row := tab.MustInsert(0.5, nil, Int(int64(i)))
		cc.Confidence(NewTuple(nil, lineage.NewVar(row.Var)))
	}
	if n := cc.Len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestConfidenceCacheConcurrency hammers one cache from many
// goroutines (run under -race by `make race` and CI).
func TestConfidenceCacheConcurrency(t *testing.T) {
	c, readOnce, shared, rows := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	want := map[*Tuple]float64{
		readOnce: bruteProb(t, readOnce.Lineage, c),
		shared:   bruteProb(t, shared.Lineage, c),
	}
	readAll := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					for tup, p := range want {
						if got := cc.Confidence(tup); math.Abs(got-p) > 1e-12 {
							t.Errorf("concurrent read got %v, want %v", got, p)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	readAll()
	// Mutate between read phases (the catalog itself is not a
	// concurrent structure) and verify the fleet sees the new epoch.
	if err := c.SetConfidence(rows[3].Var, 0.2); err != nil {
		t.Fatal(err)
	}
	want[readOnce] = bruteProb(t, readOnce.Lineage, c)
	want[shared] = bruteProb(t, shared.Lineage, c)
	readAll()
}

// TestConfidenceCacheHashCollision plants a different formula, with a
// wrong value, under a tuple's hash at the current epoch, as a hash
// collision would. The lookup must confirm the formula with
// lineage.Equal, miss, re-evaluate and replace the entry.
func TestConfidenceCacheHashCollision(t *testing.T) {
	c, readOnce, shared, _ := confCacheFixture(t)
	cc := NewConfidenceCache(c, 0)
	snap := c.Snapshot()
	defer snap.Release()
	cc.entries[readOnce.Lineage.Hash()] = confEntry{
		epoch: snap.ConfEpoch(), p: 0.999, class: LineageBounded, expr: shared.Lineage,
	}

	want := bruteProb(t, readOnce.Lineage, snap)
	if got := cc.ConfidenceAt(readOnce, snap); math.Abs(got-want) > 1e-12 {
		t.Fatalf("collided lookup = %v, want %v", got, want)
	}
	if st := cc.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("collided lookup: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	if got := cc.ConfidenceAt(readOnce, snap); math.Abs(got-want) > 1e-12 {
		t.Fatalf("second lookup = %v, want %v", got, want)
	}
	if st := cc.Stats(); st.Hits != 1 {
		t.Fatalf("the re-evaluated entry must replace the planted one: hits=%d", st.Hits)
	}
}
