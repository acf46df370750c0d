package strategy

import (
	"math"
	"math/rand"
	"testing"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// mediumInstance builds a Table-4-shaped workload without importing
// internal/workload (which depends on this package): n base tuples with
// confidence U[0.05,0.15] and mixed cost families, and n/per results,
// each an OR-rooted tree over per distinct sampled tuples. With
// withSharing, every third result duplicates one of its variables into
// a second clause, forcing the Shannon path.
func mediumInstance(seed int64, n, per int, withSharing bool) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: 0.6, Delta: 0.1}
	for i := 0; i < n; i++ {
		fam := []cost.Function{
			cost.Linear{Rate: 1 + 99*r.Float64()},
			cost.Quadratic{A: 50 * r.Float64(), B: 1 + 50*r.Float64()},
			cost.Logarithmic{Scale: 10 + 40*r.Float64(), Rate: 1 + 4*r.Float64()},
		}[r.Intn(3)]
		in.Base = append(in.Base, BaseTuple{
			Var:  lineage.Var(i + 1),
			P:    0.05 + 0.1*r.Float64(),
			Cost: fam,
		})
	}
	nResults := n / per
	if nResults < 1 {
		nResults = 1
	}
	for ri := 0; ri < nResults; ri++ {
		perm := r.Perm(n)[:per]
		leaves := make([]*lineage.Expr, per)
		for i, p := range perm {
			leaves[i] = lineage.NewVar(lineage.Var(p + 1))
		}
		half := per / 2
		f := lineage.Or(lineage.And(leaves[:half]...), lineage.And(leaves[half:]...))
		if withSharing && ri%3 == 0 {
			// Re-use the first variable in an extra clause: one shared
			// variable, still monotone.
			f = lineage.Or(f, lineage.And(leaves[0], leaves[per-1]))
		}
		in.Results = append(in.Results, Result{ID: ri, Formula: f})
	}
	in.Need = (len(in.Results) + 1) / 2
	return in
}

// treeWalkProb is the substitution tree walk, the evaluator's reference:
// Shannon expansion on the most frequent shared variable, substituting
// the constants into the formula until the residual is read-once (where
// the independent product is exact). It shares no code with the
// compiled Machine.
func treeWalkProb(f *lineage.Expr, a lineage.Assignment) float64 {
	if f.ReadOnce() {
		return lineage.ProbIndependent(f, a)
	}
	var pivot lineage.Var
	best := 0
	for v, n := range f.VarCounts() {
		if n > best || (n == best && v < pivot) {
			pivot, best = v, n
		}
	}
	p := a.ProbOf(pivot)
	return p*treeWalkProb(f.Substitute(pivot, true), a) + (1-p)*treeWalkProb(f.Substitute(pivot, false), a)
}

// TestDifferentialEvaluatorOracle drives the compiled evaluator through
// random setP sequences and checks, after every step, each result's
// probability and the multilinear gain deltaF against the tree walk and
// the brute-force truth table, on small instances, Table-4-shaped medium
// instances with and without shared variables, and a non-hierarchical
// R/S/T formula with several pivots.
func TestDifferentialEvaluatorOracle(t *testing.T) {
	var instances []*Instance
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		instances = append(instances, randomInstance(r))
	}
	instances = append(instances, mediumInstance(11, 300, 5, false), mediumInstance(11, 300, 5, true), rstInstance(2, 3))
	for n, in := range instances {
		e := newEvaluator(in, nil, nil)
		probs := make(lineage.MapAssignment, len(in.Base))
		for _, b := range in.Base {
			probs[b.Var] = b.P
		}
		oracle := func(ri int, a lineage.Assignment) float64 {
			f := in.Results[ri].Formula
			tree := treeWalkProb(f, a)
			brute, err := lineage.ProbBruteForce(f, a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(tree-brute) > conf.Eps {
				t.Fatalf("instance %d result %d: tree walk %v, brute force %v", n, ri, tree, brute)
			}
			return brute
		}
		for step := 0; step < 40; step++ {
			bi := r.Intn(len(in.Base))
			b := in.Base[bi]
			newP := b.P + (b.maxP()-b.P)*r.Float64()
			v := b.Var

			want := 0.0
			for _, oc := range e.resultsOf[bi] {
				ri := int(oc.ri)
				if e.satisfied[ri] {
					continue
				}
				cur := oracle(ri, probs)
				old := probs[v]
				probs[v] = newP
				want += oracle(ri, probs) - cur
				probs[v] = old
			}
			if got := e.deltaF(bi, newP); math.Abs(got-want) > conf.Eps {
				t.Fatalf("instance %d step %d: deltaF(%d, %v) = %v, oracle %v", n, step, bi, newP, got, want)
			}

			e.setP(bi, newP)
			probs[v] = newP
			for ri := range in.Results {
				if got, want := e.resultProb[ri], oracle(ri, probs); math.Abs(got-want) > conf.Eps {
					t.Fatalf("instance %d step %d: result %d probability %v, oracle %v", n, step, ri, got, want)
				}
			}
		}
	}
}

// TestGreedyHeapMatchesRescanMedium: the lazy-heap incremental gain
// selection must reproduce the full rescan's plan exactly (same
// tie-breaking) on workload-shaped instances, where thousands of picks
// exercise the staleness handling.
func TestGreedyHeapMatchesRescanMedium(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := mediumInstance(seed, 200, 5, seed == 3)
		rescan, err := (&Greedy{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := (&Greedy{Incremental: true}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		// Node counts legitimately differ (that is the point of the
		// incremental mode); everything else must match.
		if rescan.Cost != incr.Cost {
			t.Fatalf("seed %d: rescan cost %v, incremental %v", seed, rescan.Cost, incr.Cost)
		}
		for i := range rescan.NewP {
			if rescan.NewP[i] != incr.NewP[i] {
				t.Fatalf("seed %d: tuple %d rescan %v, incremental %v", seed, i, rescan.NewP[i], incr.NewP[i])
			}
		}
		if incr.Nodes > rescan.Nodes {
			t.Fatalf("seed %d: incremental evaluated more gains (%d) than rescan (%d)", seed, incr.Nodes, rescan.Nodes)
		}
	}
}

// TestVerifyCompiledPlans: plans from the solvers must pass the
// instance's independent verification (lineage.Prob per result),
// tying the evaluator and the production probability path together.
func TestVerifyCompiledPlans(t *testing.T) {
	in := mediumInstance(5, 120, 4, true)
	for _, s := range []Solver{&Greedy{}, &Greedy{Incremental: true}, NewDivideAndConquer()} {
		plan, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if math.IsNaN(plan.Cost) || plan.Cost < 0 {
			t.Fatalf("%s: bad cost %v", s.Name(), plan.Cost)
		}
	}
}
