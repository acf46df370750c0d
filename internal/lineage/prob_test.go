package lineage

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// mustProb is Prob for formulas the tests know to be within
// DefaultSharedLimit.
func mustProb(e *Expr, assign Assignment) float64 {
	p, _, err := Prob(e, assign)
	if err != nil {
		panic(err)
	}
	return p
}

func TestProbConstants(t *testing.T) {
	a := MapAssignment{}
	if p := mustProb(True(), a); p != 1 {
		t.Errorf("P(⊤) = %v", p)
	}
	if p := mustProb(False(), a); p != 0 {
		t.Errorf("P(⊥) = %v", p)
	}
}

func TestProbRunningExample(t *testing.T) {
	// The paper's running example (Section 3.1):
	// p38 = p(2∨3)∧13 = (p02 + p03 − p02·p03) · p13
	//     = (0.3 + 0.4 − 0.12) · 0.1 = 0.058.
	e := And(Or(NewVar(2), NewVar(3)), NewVar(13))
	assign := MapAssignment{2: 0.3, 3: 0.4, 13: 0.1}
	if p := mustProb(e, assign); !almostEqual(p, 0.058) {
		t.Fatalf("P = %v, want 0.058", p)
	}
	// Raising tuple 02 to 0.4: p25 = 0.64, p38 = 0.064 (paper text).
	assign[2] = 0.4
	if p := mustProb(e, assign); !almostEqual(p, 0.064) {
		t.Fatalf("after raising t2: P = %v, want 0.064", p)
	}
	// Alternative: raising tuple 03 to 0.5 instead: p38 = 0.065.
	assign[2], assign[3] = 0.3, 0.5
	if p := mustProb(e, assign); !almostEqual(p, 0.065) {
		t.Fatalf("after raising t3: P = %v, want 0.065", p)
	}
}

func TestProbSharedVariables(t *testing.T) {
	// (x ∧ y) ∨ (x ∧ z): x is shared. Exact probability is
	// p(x)·(p(y)+p(z)−p(y)p(z)), NOT the independence approximation.
	e := Or(And(NewVar(1), NewVar(2)), And(NewVar(1), NewVar(3)))
	assign := MapAssignment{1: 0.5, 2: 0.5, 3: 0.5}
	want := 0.5 * (0.5 + 0.5 - 0.25)
	if p := mustProb(e, assign); !almostEqual(p, want) {
		t.Fatalf("exact P = %v, want %v", p, want)
	}
	// The independence approximation differs: 1-(1-0.25)^2 = 0.4375.
	if p := ProbIndependent(e, assign); !almostEqual(p, 0.4375) {
		t.Fatalf("independent P = %v, want 0.4375", p)
	}
}

func TestProbIdempotence(t *testing.T) {
	// x ∨ x has probability p(x), x ∧ x has probability p(x).
	x := NewVar(1)
	assign := MapAssignment{1: 0.3}
	if p := mustProb(Or(x, x), assign); !almostEqual(p, 0.3) {
		t.Errorf("P(x∨x) = %v", p)
	}
	if p := mustProb(And(x, x), assign); !almostEqual(p, 0.3) {
		t.Errorf("P(x∧x) = %v", p)
	}
	// x ∧ ¬x is unsatisfiable.
	if p := mustProb(And(x, Not(x)), assign); !almostEqual(p, 0) {
		t.Errorf("P(x∧¬x) = %v", p)
	}
	// x ∨ ¬x is a tautology.
	if p := mustProb(Or(x, Not(x)), assign); !almostEqual(p, 1) {
		t.Errorf("P(x∨¬x) = %v", p)
	}
}

func TestProbClampsInputs(t *testing.T) {
	e := NewVar(1)
	if p := mustProb(e, MapAssignment{1: 1.5}); p != 1 {
		t.Errorf("P with p>1 input = %v", p)
	}
	if p := mustProb(e, MapAssignment{1: -0.5}); p != 0 {
		t.Errorf("P with p<0 input = %v", p)
	}
	if p := mustProb(e, FuncAssignment(func(Var) float64 { return math.NaN() })); p != 0 {
		t.Errorf("P with NaN input = %v", p)
	}
}

func TestProbExactLimit(t *testing.T) {
	// Build a formula with 3 shared variables and set the limit to 2.
	var clauses []*Expr
	for i := 0; i < 2; i++ {
		clauses = append(clauses, And(NewVar(1), NewVar(2), NewVar(3), NewVar(Var(10+i))))
	}
	e := Or(clauses...)
	_, err := treeProbExact(e, MapAssignment{}, 2)
	if err == nil {
		t.Fatal("expected ErrTooManyShared")
	}
	if p, err := treeProbExact(e, MapAssignment{1: 1, 2: 1, 3: 1, 10: 0.5, 11: 0.5}, 3); err != nil || !almostEqual(p, 0.75) {
		t.Fatalf("treeProbExact = %v, %v; want 0.75", p, err)
	}
	// Prob enforces DefaultSharedLimit with the same typed error.
	clauses = nil
	for i := 0; i < 2; i++ {
		c := []*Expr{NewVar(Var(100 + i))}
		for v := 0; v <= DefaultSharedLimit; v++ {
			c = append(c, NewVar(Var(v)))
		}
		clauses = append(clauses, And(c...))
	}
	if _, _, err := Prob(Or(clauses...), MapAssignment{}); !errors.Is(err, ErrTooManyShared) {
		t.Fatalf("Prob past DefaultSharedLimit: err = %v, want ErrTooManyShared", err)
	}
}

// TestDifferentialProbTreeWalk pins Prob to the substitution tree walk:
// bit-identical on read-once formulas (both run probReadOnce), within
// 1e-12 on shared ones (the compiled kernel), with pivots reporting the
// 2^shared enumeration.
func TestDifferentialProbTreeWalk(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(r, 6, 4)
		assign := randomAssign(r, e)
		got, pivots, err := Prob(e, assign)
		if err != nil {
			t.Fatal(err)
		}
		want := treeProb(e, assign)
		shared := len(sharedVarsByFrequency(e))
		if e.ReadOnce() {
			if got != want || pivots != 0 {
				t.Fatalf("trial %d: read-once Prob = %v (pivots %d), tree walk %v (e=%v)", trial, got, pivots, want, e)
			}
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Prob = %v, tree walk %v (e=%v)", trial, got, want, e)
		}
		if pivots != 1<<shared {
			t.Fatalf("trial %d: pivots = %d, want 2^%d (e=%v)", trial, pivots, shared, e)
		}
	}
}

func TestProbPinnedMultilinearity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		e := randomExpr(r, 4, 3)
		assign := MapAssignment{}
		for i := 0; i < 4; i++ {
			assign[Var(i)] = r.Float64()
		}
		for i := 0; i < 4; i++ {
			v := Var(i)
			p0, p1 := treeProbPinned(e, assign, v)
			pv := assign[v]
			interpolated := (1-pv)*p0 + pv*p1
			if !almostEqual(interpolated, mustProb(e, assign)) {
				t.Fatalf("trial %d var %d: interpolated %v != exact %v (e=%v)",
					trial, i, interpolated, mustProb(e, assign), e)
			}
		}
	}
}

func TestPropertyProbMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		assign := MapAssignment{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = rr.Float64()
		}
		exact := mustProb(e, assign)
		brute, err := ProbBruteForce(e, assign)
		if err != nil {
			return false
		}
		return math.Abs(exact-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyProbInUnitInterval(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 6, 4)
		assign := MapAssignment{}
		for i := 0; i < 6; i++ {
			assign[Var(i)] = rr.Float64()
		}
		p := mustProb(e, assign)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMonotoneProbNonDecreasing(t *testing.T) {
	// For negation-free formulas, raising any variable's probability must
	// not decrease P(e) — the invariant the strategy solvers rely on.
	r := rand.New(rand.NewSource(29))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomMonotoneExpr(rr, 5, 3)
		assign := MapAssignment{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = rr.Float64() * 0.8
		}
		before := mustProb(e, assign)
		v := Var(rr.Intn(5))
		assign[v] = math.Min(1, assign[v]+0.1+rr.Float64()*0.1)
		after := mustProb(e, assign)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// randomMonotoneExpr builds a random negation-free expression.
func randomMonotoneExpr(r *rand.Rand, nVars, depth int) *Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return NewVar(Var(r.Intn(nVars)))
	}
	n := 2 + r.Intn(3)
	children := make([]*Expr, n)
	for i := range children {
		children[i] = randomMonotoneExpr(r, nVars, depth-1)
	}
	if r.Intn(2) == 0 {
		return And(children...)
	}
	return Or(children...)
}

func TestDerivative(t *testing.T) {
	// P((x∨y)∧z) = (px+py−pxpy)pz; ∂/∂px = (1−py)pz.
	e := And(Or(NewVar(1), NewVar(2)), NewVar(3))
	assign := MapAssignment{1: 0.3, 2: 0.4, 3: 0.1}
	if d := treeDerivative(e, assign, 1); !almostEqual(d, (1-0.4)*0.1) {
		t.Errorf("∂/∂p1 = %v, want %v", d, 0.06)
	}
	if d := treeDerivative(e, assign, 3); !almostEqual(d, 0.3+0.4-0.12) {
		t.Errorf("∂/∂p3 = %v, want %v", d, 0.58)
	}
	// Variable not in the formula: derivative 0.
	if d := treeDerivative(e, assign, 99); !almostEqual(d, 0) {
		t.Errorf("∂/∂p99 = %v, want 0", d)
	}
}

func TestProbBruteForceRefusesLarge(t *testing.T) {
	var vars []*Expr
	for i := 0; i < 21; i++ {
		vars = append(vars, NewVar(Var(i)))
	}
	if _, err := ProbBruteForce(Or(vars...), MapAssignment{}); err == nil {
		t.Fatal("expected refusal for >20 vars")
	}
}
