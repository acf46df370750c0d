package lineage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplifyIdempotence(t *testing.T) {
	a := NewVar(1)
	if got := Simplify(And(a, a)); !Equal(got, a) {
		t.Errorf("A∧A = %v", got)
	}
	if got := Simplify(Or(a, a)); !Equal(got, a) {
		t.Errorf("A∨A = %v", got)
	}
	// Nested duplicates after child simplification.
	if got := Simplify(Or(And(a, a), a)); !Equal(got, a) {
		t.Errorf("(A∧A)∨A = %v", got)
	}
}

func TestSimplifyAbsorption(t *testing.T) {
	a, b := NewVar(1), NewVar(2)
	if got := Simplify(Or(a, And(a, b))); !Equal(got, a) {
		t.Errorf("A∨(A∧B) = %v", got)
	}
	if got := Simplify(And(a, Or(a, b))); !Equal(got, a) {
		t.Errorf("A∧(A∨B) = %v", got)
	}
	// Absorption with a compound absorber.
	ab := And(a, b)
	if got := Simplify(Or(ab, And(a, b, NewVar(3)))); !Equal(got, ab) {
		t.Errorf("(A∧B)∨(A∧B∧C) = %v", got)
	}
}

func TestSimplifyComplement(t *testing.T) {
	a := NewVar(1)
	if got := Simplify(And(a, Not(a))); !Equal(got, False()) {
		t.Errorf("A∧¬A = %v", got)
	}
	if got := Simplify(Or(a, Not(a))); !Equal(got, True()) {
		t.Errorf("A∨¬A = %v", got)
	}
	// Compound complement.
	ab := And(NewVar(1), NewVar(2))
	if got := Simplify(Or(ab, Not(ab))); !Equal(got, True()) {
		t.Errorf("X∨¬X = %v", got)
	}
}

func TestSimplifyLeavesIrreducibleAlone(t *testing.T) {
	e := And(Or(NewVar(1), NewVar(2)), NewVar(3))
	if got := Simplify(e); !Equal(got, e) {
		t.Errorf("irreducible changed: %v", got)
	}
	if got := Simplify(NewVar(1)); !Equal(got, NewVar(1)) {
		t.Errorf("var changed: %v", got)
	}
	if got := Simplify(True()); !Equal(got, True()) {
		t.Errorf("⊤ changed: %v", got)
	}
}

func TestSimplifyShrinksRepeatedOrChains(t *testing.T) {
	// The DISTINCT-merge pattern: the same candidate lineage OR-ed in
	// again and again.
	base := And(NewVar(1), NewVar(2))
	e := base
	for i := 0; i < 5; i++ {
		e = Or(e, base)
	}
	got := Simplify(e)
	if !Equal(got, base) {
		t.Fatalf("repeated OR chain simplified to %v", got)
	}
}

func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func(seed int64, truthBits uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		s := Simplify(e)
		assign := map[Var]bool{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = truthBits&(1<<i) != 0
		}
		return e.Eval(assign) == s.Eval(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimplifyPreservesProbability(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		s := Simplify(e)
		assign := MapAssignment{}
		for i := 0; i < 5; i++ {
			assign[Var(i)] = rr.Float64()
		}
		pe := mustProb(e, assign)
		ps := mustProb(s, assign)
		diff := pe - ps
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimplifyNeverGrows(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 5, 3)
		return Simplify(e).Size() <= e.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}
